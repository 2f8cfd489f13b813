#!/usr/bin/env bash
# Full local gate: tier-1 build + tests, ThreadSanitizer smoke of the
# parallel code paths, AddressSanitizer + UBSan smoke of the envelope
# factor and the runner, the property-harness smoke sweep, a tiny Fig-3
# table rendered from its event record and a tiny extensions run.
#
#   scripts/check.sh                 # everything
#   scripts/check.sh fuzz [N] [SEC]  # extended property-harness soak only:
#                                    # N seeded scenarios (default 1000)
#                                    # time-boxed to SEC seconds (default
#                                    # 300), gated on prop_fuzz's exit code
#   ECA_CHECK_SKIP_TSAN=1 scripts/check.sh   # skip the TSan build (slow)
#   ECA_CHECK_SKIP_ASAN=1 scripts/check.sh   # skip the ASan + UBSan build
#   ECA_PROP_SEED=7 scripts/check.sh fuzz    # soak a different seed range
#
# Build directories: build/ (tier-1, Release), build-tsan/ (TSan smoke) and
# build-asan/ (ASan + UBSan smoke).
set -euo pipefail

cd "$(dirname "$0")/.."
jobs=$(nproc 2>/dev/null || echo 2)

# Extended-seed-range fuzz mode: build only what the harness needs and run
# the soak. prop_fuzz exits 1 on any oracle violation or when no scenario
# ran, printing each failure's seed; failures are shrunk to replay files
# under build/prop-fuzz/.
if [[ "${1:-}" == "fuzz" ]]; then
  scenarios="${2:-1000}"
  budget="${3:-300}"
  echo "== prop fuzz: $scenarios scenarios, ${budget}s budget =="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build -j "$jobs" --target prop_fuzz
  fuzz_dir=build/prop-fuzz
  rm -rf "$fuzz_dir" && mkdir -p "$fuzz_dir"
  ./build/examples/prop_fuzz --scenarios "$scenarios" \
    --time-budget "$budget" --replay-dir "$fuzz_dir"
  echo "== check.sh fuzz: gate passed =="
  exit 0
fi

echo "== tier-1: configure + build =="
cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build -j "$jobs"

echo "== tier-1: ctest =="
ctest --test-dir build --output-on-failure -j "$jobs"

if [[ "${ECA_CHECK_SKIP_TSAN:-0}" != "1" ]]; then
  echo "== tsan-smoke: build with -DECA_SANITIZE=thread =="
  cmake -B build-tsan -S . -DECA_SANITIZE=thread
  cmake --build build-tsan -j "$jobs" \
    --target test_runner_determinism test_slot_parallel test_obs_parallel \
             test_pdhg_parallel test_baseline_parallel \
             test_events_determinism
  echo "== tsan-smoke: ctest -L tsan-smoke =="
  ctest --test-dir build-tsan -L tsan-smoke --output-on-failure
else
  echo "== tsan-smoke: skipped (ECA_CHECK_SKIP_TSAN=1) =="
fi

if [[ "${ECA_CHECK_SKIP_ASAN:-0}" != "1" ]]; then
  echo "== asan-smoke: build with -DECA_SANITIZE=address plus UBSan =="
  # UBSan aborts on its first report; the libstdc++ assertions bound-check
  # every container index the envelope factor computes.
  cmake -B build-asan -S . -DECA_SANITIZE=address \
    -DCMAKE_CXX_FLAGS="-fsanitize=undefined -fno-sanitize-recover=undefined -D_GLIBCXX_ASSERTIONS" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=undefined"
  cmake --build build-asan -j "$jobs" \
    --target test_linalg test_lp_normal test_runner_determinism \
             test_events_determinism
  echo "== asan-smoke: ctest -L asan-smoke =="
  ctest --test-dir build-asan -L asan-smoke --output-on-failure -j "$jobs"
else
  echo "== asan-smoke: skipped (ECA_CHECK_SKIP_ASAN=1) =="
fi

echo "== prop-smoke: differential harness sweep (ctest -L prop-smoke) =="
ctest --test-dir build -L prop-smoke --output-on-failure

echo "== prop-smoke: prop_fuzz run, gated on its exit code =="
prop_dir=build/prop-check
rm -rf "$prop_dir" && mkdir -p "$prop_dir"
./build/examples/prop_fuzz --scenarios 50 --replay-dir "$prop_dir"

echo "== scripts: python unit tests =="
if command -v pytest >/dev/null 2>&1; then
  pytest -q tests/scripts
else
  python3 -m unittest discover -s tests/scripts -p 'test_*.py' -v
fi

echo "== obs: instrumented trajectory + schema validation =="
obs_dir=build/obs-check
rm -rf "$obs_dir" && mkdir -p "$obs_dir"
(cd "$obs_dir" && ../examples/run_instance --demo > run.log)
# One process writes both streams, so validate_telemetry.py also checks
# that the trace's counter totals agree with the events' run records.
ECA_TRACE="$obs_dir/run.trace.json" ECA_EVENTS="$obs_dir/run.events.jsonl" \
  ./build/examples/run_instance "$obs_dir/demo.instance" online-approx
python3 scripts/validate_telemetry.py \
  --trace "$obs_dir/run.trace.json" \
  --events "$obs_dir/run.events.jsonl"

echo "== obs: experiment stream + markdown run report =="
# One repetition of the full roster with offline-opt through the runner:
# the stream carries the offline reference, so the report's ratio and
# regret sections run end to end.
ECA_EVENTS="$obs_dir/taxi_day.events.jsonl" \
  ./build/examples/taxi_day 8 8 > "$obs_dir/taxi_day.log"
python3 scripts/validate_telemetry.py \
  --events "$obs_dir/taxi_day.events.jsonl"
python3 scripts/report_run.py \
  --events "$obs_dir/taxi_day.events.jsonl" --algorithm online-approx \
  --out "$obs_dir/report.md"
grep -q "## Worst" "$obs_dir/report.md"

echo "== bench: a figure table from its record =="
# The Fig-3 driver records three labelled experiments; the report renders
# them as the figure table EXPERIMENTS.md quotes at full scale.
ECA_USERS=6 ECA_SLOTS=6 ECA_REPS=2 ECA_EVENTS="$obs_dir/fig3.events.jsonl" \
  ./build/bench/bench_fig3_workloads > "$obs_dir/fig3.log"
python3 scripts/validate_telemetry.py --events "$obs_dir/fig3.events.jsonl"
python3 scripts/report_run.py --events "$obs_dir/fig3.events.jsonl" \
  --out "$obs_dir/fig3.md"
grep -q "^| uniform | " "$obs_dir/fig3.md"

echo "== bench: extensions at tiny scale =="
# Lookahead (the anchored horizon LP through solve_offline's solver
# choice), lazy-greedy and the self-certification demo, end to end.
ECA_USERS=6 ECA_SLOTS=6 ECA_REPS=1 ./build/bench/bench_extensions \
  > build/bench_extensions.log

echo "== check.sh: all gates passed =="
