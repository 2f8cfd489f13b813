#!/usr/bin/env python3
"""Performance gate over a BENCH json file.

    scripts/perf_guard.py BENCH_baselines.json [prop_summary.json ...]

Dispatches on the file's "schema" field and fails (exit 1) when it shows a
regression the repo has promised not to reintroduce.

eca.bench_baselines.v2 (baseline-evaluation sweep):

  * any bit_identical=false — the slot fan-out must reproduce the serial
    trajectory bit for bit for every separable baseline;
  * any rebuild_bit_identical=false — the skeleton path (skeleton refresh,
    reused workspace) must reproduce the rebuild+cold reference (free
    builders, cold IPM solve in a fresh workspace) bit for bit, in
    allocations and cost;
  * any pool-engaged point with fan-out speedup below 0.95 — the
    work-volume floor exists so that the fan-out is never a slowdown, and
    points it collapses to serial report speedup 1.0 by construction
    (where no point engages, a note names the causes the points show);
  * at J >= 1024, the skeleton path must stay within 10% of wall parity
    with rebuild+cold (skeleton_speedup >= 0.9) — caching must never be a
    slowdown at the scale it exists for;
  * max_violation above 1e-5 — the skeleton path must stay feasible.

eca.prop_summary.v1 (property-harness run summary, written by
examples/prop_fuzz --summary):

  * zero scenarios run, or any oracle violation (failures > 0) — each
    failure is printed with its seed and shrunk replay path so the witness
    can be re-run with `examples/prop_fuzz --replay FILE`.

The BENCH schema additionally carries an "events_overhead" block (a
representative simulation timed in alternating rounds with event streaming
off and on, buffer-only; each round's on/off ratio compares two adjacent
legs) and a provenance "meta" block; the events gate requires the median
ratio within 2%. A median events-off leg below 10 ms is too noisy to gate
and prints a note instead. The meta block's "checks"
entry records the prop-harness smoke run against the same binary at bench
time; a recorded ok=false fails the gate, a recorded skip is a note.

Exits 0 with a summary line per file when every check passes.
"""
import collections
import json
import statistics
import sys

AT_SCALE_USERS = 1024
MIN_POOL_SPEEDUP = 0.95
MAX_EVENTS_OVERHEAD = 1.02
MIN_GATEABLE_SECONDS = 0.01
# The work floor bench_baselines' engagement flag mirrors:
# ThreadPool::kDefaultBaselineMinWork in slot-LP cells. A point under two
# workers' worth resolves to one worker on any host.
BASELINE_MIN_WORK = 4096


def fail(message):
    print(f"perf_guard: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check_events_overhead(path, bench):
    """Events-on-vs-off gate over the BENCH file's events_overhead block."""
    block = bench.get("events_overhead")
    if block is None:
        print(f"perf_guard: note: {path}: no events_overhead block "
              "(pre-events bench json); overhead gate not exercised")
        return
    off = block["median_seconds_off"]
    if off < MIN_GATEABLE_SECONDS:
        print(f"perf_guard: note: {path}: median events-off leg "
              f"{off * 1e3:.2f} ms is below the gateable floor; overhead "
              "gate not exercised")
        return
    ratios = block["ratios"]
    ratio = statistics.median(ratios)
    if ratio > MAX_EVENTS_OVERHEAD:
        fail(f"{path}: median events-on/off ratio {ratio:.4f} over "
             f"{len(ratios)} rounds exceeds {MAX_EVENTS_OVERHEAD:.2f} — "
             "event recording must stay off the critical path")
    print(f"perf_guard: OK: {path}: events overhead "
          f"{100.0 * (ratio - 1.0):+.2f}% (median of {len(ratios)} rounds, "
          f"median off leg {off:.4f}s)")


def check_meta_checks(path, bench):
    """Verification-gate provenance of a BENCH file: the meta block records
    a prop-harness smoke run against the same binary that produced the
    perf numbers. A recorded failure poisons the perf point; a
    recorded skip (ECA_BENCH_PROP_SMOKE=0) and a pre-checks bench json are
    informational."""
    block = bench.get("meta", {}).get("checks", {}).get("prop_smoke")
    if block is None:
        print(f"perf_guard: note: {path}: no meta.checks block "
              "(pre-checks bench json); gate provenance not recorded")
        return
    if block.get("skipped"):
        print(f"perf_guard: note: {path}: prop smoke skipped at bench time "
              "(ECA_BENCH_PROP_SMOKE=0)")
        return
    if not block.get("ok"):
        fail(f"{path}: meta.checks.prop_smoke recorded "
             f"{block.get('failures', '?')} oracle violation(s) at bench "
             "time — the perf numbers came from a binary that fails "
             "verification")
    print(f"perf_guard: OK: {path}: prop smoke at bench time "
          f"({block.get('scenarios', 0)} scenarios, "
          f"{block.get('wall_seconds', 0.0):.3f}s)")


def unengaged_cause(causes):
    """Why no point engaged the pool, from the per-point causes: the one
    cause when every point shares it, else each cause with its count."""
    counts = collections.Counter(causes)
    if len(counts) == 1:
        return causes[0]
    return ", ".join(f"{cause} on {n} of {len(causes)} points"
                     for cause, n in counts.most_common())


MAX_VIOLATION = 1e-5
MIN_SKELETON_SPEEDUP = 0.9


def check_baselines(path, bench):
    points = bench.get("points", [])
    if not points:
        fail(f"{path}: no sweep points")
    engaged = scale_gated = 0
    for point in points:
        where = f"{path}: {point['algorithm']} J={point['users']}"
        if not point["bit_identical"]:
            fail(f"{where}: bit_identical=false — the slot fan-out changed "
                 "the trajectory")
        if point["pool_engaged"]:
            engaged += 1
            if point["speedup"] < MIN_POOL_SPEEDUP:
                fail(f"{where}: fan-out speedup {point['speedup']:.3f} < "
                     f"{MIN_POOL_SPEEDUP} with the pool engaged; the "
                     "work-volume floor should have kept this point serial")
        if not point["rebuild_bit_identical"]:
            fail(f"{where}: rebuild_bit_identical=false — the skeleton path "
                 "left the rebuild+cold reference's allocations or cost")
        if point["max_violation"] > MAX_VIOLATION:
            fail(f"{where}: max_violation {point['max_violation']:.3e} > "
                 f"{MAX_VIOLATION} — the skeleton path left feasibility")
        if point["users"] >= AT_SCALE_USERS:
            scale_gated += 1
            if point["skeleton_speedup"] < MIN_SKELETON_SPEEDUP:
                fail(f"{where}: skeleton-path speedup "
                     f"{point['skeleton_speedup']:.3f} < "
                     f"{MIN_SKELETON_SPEEDUP} over rebuild+cold — caching "
                     "must not be a slowdown at scale")
    if scale_gated == 0:
        print(f"perf_guard: note: {path}: no point with J >= "
              f"{AT_SCALE_USERS}; at-scale parity gate not exercised")
    if engaged == 0:
        def cause(point):
            if bench.get("threads", 2) <= 1:
                return "one worker requested"
            if not point["separable"]:
                return "not slot-separable"
            if point["slots"] <= 1:
                return "a single slot"
            cells = point["slots"] * bench["clouds"] * point["users"]
            if cells < 2 * BASELINE_MIN_WORK:
                return (f"work-volume floor: slots x clouds x users < 2 x "
                        f"{BASELINE_MIN_WORK}")
            return "hardware-concurrency cap"
        print(f"perf_guard: note: {path}: no point engaged the pool "
              f"({unengaged_cause([cause(p) for p in points])}); fan-out "
              "speedup gate not exercised")
    print(f"perf_guard: OK: {path}: {len(points)} baseline points "
          f"({engaged} pool-engaged, {scale_gated} under the at-scale "
          "parity gate)")


def check_prop_summary(path, summary):
    """Property-harness run summary (eca.prop_summary.v1): any oracle
    violation fails the gate exactly like a perf regression — the harness
    already shrank each failure to a minimal replay file, so the output
    points straight at the witness."""
    scenarios = summary.get("scenarios", 0)
    if scenarios < 1:
        fail(f"{path}: harness ran zero scenarios")
    failures = summary.get("failures", 0)
    if failures > 0:
        for detail in summary.get("failure_details", []):
            print(f"perf_guard: {path}: seed {detail.get('seed')}: "
                  f"{detail.get('violation')} "
                  f"(replay: {detail.get('replay_path') or 'not written'})",
                  file=sys.stderr)
        fail(f"{path}: {failures} oracle violation(s) across {scenarios} "
             "scenarios — replay the shrunk witness with "
             "examples/prop_fuzz --replay")
    budget_note = (" (time budget exhausted)"
                   if summary.get("budget_exhausted") else "")
    print(f"perf_guard: OK: {path}: {scenarios} scenarios verified, "
          f"offline legs on {summary.get('offline_legs_run', 0)}, "
          f"worst KKT {summary.get('worst_kkt', 0.0):.3g}, "
          f"worst infeasibility {summary.get('worst_infeasibility', 0.0):.3g}"
          f"{budget_note}")


CHECKS = {
    "eca.bench_baselines.v2": check_baselines,
}


def main():
    if len(sys.argv) < 2:
        fail(f"usage: {sys.argv[0]} BENCH.json [BENCH.json ...]")
    for path in sys.argv[1:]:
        try:
            with open(path, encoding="utf-8") as handle:
                bench = json.load(handle)
        except (OSError, json.JSONDecodeError) as err:
            fail(f"{path}: {err}")
        schema = bench.get("schema")
        if schema == "eca.prop_summary.v1":
            # Harness summaries carry no benchmark timings, so the
            # events-overhead gate does not apply.
            check_prop_summary(path, bench)
            continue
        check = CHECKS.get(schema)
        if check is None:
            fail(f"{path}: unknown schema {schema!r}; expected one of "
                 f"{sorted(CHECKS) + ['eca.prop_summary.v1']}")
        check(path, bench)
        check_events_overhead(path, bench)
        check_meta_checks(path, bench)


if __name__ == "__main__":
    main()
