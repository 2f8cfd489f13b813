#!/usr/bin/env python3
"""Performance gate over a BENCH json file.

    scripts/perf_guard.py BENCH_solvers.json [BENCH_offline.json ...]

Dispatches on the file's "schema" field and fails (exit 1) when it shows a
regression the repo has promised not to reintroduce.

eca.bench_solvers.v3 (slot sweep):

  * any point where the pool actually engaged (pool_engaged=true under the
    adaptive granularity floor) with a multi-thread speedup below 0.95 —
    the floor exists precisely so parallelism is never a slowdown, and
    points it collapses to serial report speedup 1.0 by construction;
  * any bit_identical=false — thread count must never change results.

eca.bench_offline.v1 (parallel PDHG horizon-LP sweep):

  * any bit_identical=false — the partitioned solve must be bit-identical
    to serial for every LP thread count;
  * any pool-engaged point with speedup below 0.95 (same granularity-floor
    contract as above);
  * the largest pool-engaged point must beat serial outright (speedup
    > 1.0) — that scale is the reason the parallel path exists. Where no
    point engages the pool the gate prints a note naming the cause the
    points show (every point under two workers' nonzeros-per-worker floor,
    or the hardware-concurrency cap of a small host) instead;
    bit-identity is still enforced via the oversubscribed determinism
    tests.

eca.bench_baselines.v1 (baseline-evaluation sweep):

  * any bit_identical=false — the slot fan-out must reproduce the serial
    trajectory bit for bit for every separable baseline;
  * any pool-engaged point with fan-out speedup below 0.95 (work-volume
    floor contract, same as above; where no point engages, a note names
    the causes the points show);
  * wherever the algorithm's default path chains warm starts
    (warm_enabled=true) and the point carries IPM iteration counts
    (iters_rebuild_cold > 0), the warm leg must not cost IPM iterations:
    warm_iter_ratio <= 1.02. Iteration counts are deterministic, so this
    gate is immune to the +/-10% wall-clock noise of shared CI hosts —
    warm_max_users exists precisely because hints that stop paying in
    iterations must disengage (with no such point a note is printed);
  * at J >= 1024, the default path must stay within 10% of wall parity
    with rebuild+cold (warm_speedup >= 0.9) — caching must never be a
    slowdown at the scale it exists for;
  * cost_drift above 0.05 — warm starts move the solver trajectory, and
    degenerate objectives (perf-opt/oper-opt) may land on a different
    optimal vertex, but the evaluated cost must stay in the same ballpark;
  * max_violation above 1e-5 — the optimized path must stay feasible.

eca.bench_scale.v1 (user-class aggregation sweep):

  * any streaming-parity cross-check failure — the streaming class-space
    driver must match the materializing simulator running the same
    aggregated algorithm to summation order (they perform bitwise-identical
    solves);
  * cost_delta_rel above 1e-5 wherever the per-user leg ran — P2 is
    strictly convex, so the collapsed and per-user paths share a unique
    optimum and may differ only by solver tolerance;
  * max_violation above 1e-5 on any point or the long run;
  * at J >= 100000 where the per-user leg ran: collapse_ratio >= 10 and
    aggregated speedup >= 2.0 (wall-gated only when the per-user leg is
    above the noise floor). On quick-mode runs with no such point a note
    is printed; the committed BENCH_scale.json carries the full-scale
    evidence;
  * the long run (when present) must stay under the 16 GB peak-RSS budget
    — the streaming representation is the reason a 10^6-user, 60-slot
    trajectory fits.

eca.prop_summary.v1 (property-harness run summary, written by
examples/prop_fuzz --summary):

  * zero scenarios run, or any oracle violation (failures > 0) — each
    failure is printed with its seed and shrunk replay path so the witness
    can be re-run with `examples/prop_fuzz --replay FILE`.

All BENCH schemas additionally carry an "events_overhead" block (best-of-N
wall time for a representative simulation with event streaming off vs. on,
buffer-only) and a provenance "meta" block; the shared gate requires the
events-on leg within 2% of events-off. Quick-mode timings below 10 ms are
too noisy to gate and print a note instead. The meta block's "checks"
entry records the prop-harness smoke run against the same binary at bench
time; a recorded ok=false fails the gate, a recorded skip is a note.

Exits 0 with a summary line per file when every check passes.
"""
import collections
import json
import sys

AT_SCALE_USERS = 1024
MIN_POOL_SPEEDUP = 0.95
MAX_EVENTS_OVERHEAD = 1.02
MIN_GATEABLE_SECONDS = 0.01
# The work floors the emitters' engagement flags mirror: PDHG's
# min_nnz_per_thread (bench_offline) and ThreadPool::kDefaultBaselineMinWork
# in slot-LP cells (bench_baselines). A point under two workers' worth
# resolves to one worker on any host.
OFFLINE_MIN_NNZ_PER_WORKER = 32768
BASELINE_MIN_WORK = 4096


def fail(message):
    print(f"perf_guard: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check_events_overhead(path, bench):
    """Shared events-on-vs-off gate; every BENCH schema carries the block."""
    block = bench.get("events_overhead")
    if block is None:
        print(f"perf_guard: note: {path}: no events_overhead block "
              "(pre-events bench json); overhead gate not exercised")
        return
    off, on = block["seconds_off"], block["seconds_on"]
    if off < MIN_GATEABLE_SECONDS:
        print(f"perf_guard: note: {path}: events-off leg {off * 1e3:.2f} ms "
              "is below the gateable floor (quick-mode scale); overhead "
              "gate not exercised")
        return
    if on > off * MAX_EVENTS_OVERHEAD:
        fail(f"{path}: events-on wall time {on:.4f}s exceeds "
             f"{MAX_EVENTS_OVERHEAD:.2f}x the events-off leg {off:.4f}s — "
             "event recording must stay off the critical path")
    print(f"perf_guard: OK: {path}: events overhead "
          f"{100.0 * (on / off - 1.0):+.2f}% "
          f"(on {on:.4f}s vs off {off:.4f}s)")


def check_meta_checks(path, bench):
    """Verification-gate provenance shared by every BENCH schema: the meta
    block records a prop-harness smoke run against the same binary that
    produced the perf numbers. A recorded failure poisons the perf point; a
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


def check_solvers(path, bench):
    points = bench.get("slot_sweep", {}).get("points", [])
    if not points:
        fail(f"{path}: slot_sweep has no points")
    for point in points:
        where = f"{path}: J={point['users']}"
        if not point["bit_identical"]:
            fail(f"{where}: bit_identical=false — thread count changed "
                 "the trajectory")
        if point["pool_engaged"] and point["speedup"] < MIN_POOL_SPEEDUP:
            fail(f"{where}: multi-thread speedup {point['speedup']:.3f} < "
                 f"{MIN_POOL_SPEEDUP} with the pool engaged; the adaptive "
                 "granularity floor should have kept this point serial")
    print(f"perf_guard: OK: {path}: {len(points)} sweep points")


def check_offline(path, bench):
    points = bench.get("points", [])
    if not points:
        fail(f"{path}: no sweep points")
    engaged = [p for p in points if p["pool_engaged"]]
    for point in points:
        where = f"{path}: J={point['users']} T={point['slots']}"
        if not point["bit_identical"]:
            fail(f"{where}: bit_identical=false — LP thread count changed "
                 "the solve")
        if point["pool_engaged"] and point["speedup"] < MIN_POOL_SPEEDUP:
            fail(f"{where}: multi-thread speedup {point['speedup']:.3f} < "
                 f"{MIN_POOL_SPEEDUP} with the pool engaged; the "
                 "nonzeros-per-worker floor should have kept this point "
                 "serial")
    if engaged:
        largest = max(engaged, key=lambda p: p["nnz"])
        if largest["speedup"] <= 1.0:
            fail(f"{path}: J={largest['users']} T={largest['slots']} "
                 f"(largest engaged point, {largest['nnz']} nnz): speedup "
                 f"{largest['speedup']:.3f} <= 1.0 — the parallel PDHG path "
                 "must beat serial at scale")
    else:
        def cause(point):
            if bench.get("threads", 2) <= 1:
                return "one worker requested"
            if point["nnz"] < 2 * OFFLINE_MIN_NNZ_PER_WORKER:
                return (f"nonzeros-per-worker floor: nnz < 2 x "
                        f"{OFFLINE_MIN_NNZ_PER_WORKER}")
            return "hardware-concurrency cap"
        print(f"perf_guard: note: {path}: no point engaged the pool "
              f"({unengaged_cause([cause(p) for p in points])}); speedup "
              "gates not exercised")
    print(f"perf_guard: OK: {path}: {len(points)} offline points "
          f"({len(engaged)} pool-engaged)")


MAX_COST_DRIFT = 0.05
MAX_VIOLATION = 1e-5
MIN_SKELETON_SPEEDUP = 0.9
MAX_WARM_ITER_RATIO = 1.02


def check_baselines(path, bench):
    points = bench.get("points", [])
    if not points:
        fail(f"{path}: no sweep points")
    engaged = warm_gated = scale_gated = 0
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
        if point["cost_drift"] > MAX_COST_DRIFT:
            fail(f"{where}: cost_drift {point['cost_drift']:.3e} > "
                 f"{MAX_COST_DRIFT} — skeleton+warm landed far from the "
                 "legacy path's cost")
        if point["max_violation"] > MAX_VIOLATION:
            fail(f"{where}: max_violation {point['max_violation']:.3e} > "
                 f"{MAX_VIOLATION} — the optimized path left feasibility")
        if point["warm_enabled"] and point.get("iters_rebuild_cold", 0) > 0:
            warm_gated += 1
            if point["warm_iter_ratio"] > MAX_WARM_ITER_RATIO:
                fail(f"{where}: warm_iter_ratio "
                     f"{point['warm_iter_ratio']:.4f} > "
                     f"{MAX_WARM_ITER_RATIO} — warm hints cost IPM "
                     "iterations here; lower warm_max_users so the chain "
                     "disengages at this scale")
        if point["users"] >= AT_SCALE_USERS:
            scale_gated += 1
            if point["warm_speedup"] < MIN_SKELETON_SPEEDUP:
                fail(f"{where}: default-path speedup "
                     f"{point['warm_speedup']:.3f} < {MIN_SKELETON_SPEEDUP} "
                     "over rebuild+cold — caching must not be a slowdown "
                     "at scale")
    if warm_gated == 0:
        print(f"perf_guard: note: {path}: no warm-enabled point with "
              "IPM iteration counts; warm-iteration gate not exercised")
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
          f"({engaged} pool-engaged, {warm_gated} under the warm-iteration "
          f"gate, {scale_gated} under the at-scale parity gate)")


SCALE_GATE_USERS = 100000
MIN_SCALE_COLLAPSE = 10.0
MIN_SCALE_SPEEDUP = 2.0
MAX_SCALE_COST_DELTA = 1e-5
MAX_SCALE_RSS_MB = 16384.0


def check_scale(path, bench):
    points = bench.get("points", [])
    if not points:
        fail(f"{path}: no sweep points")
    parity_checked = exact_checked = scale_gated = 0
    for point in points:
        where = f"{path}: J={point['users']} T={point['slots']}"
        if point["max_violation"] > MAX_VIOLATION:
            fail(f"{where}: max_violation {point['max_violation']:.3e} > "
                 f"{MAX_VIOLATION} — the aggregated path left feasibility")
        if point["parity_checked"]:
            parity_checked += 1
            if not point["streaming_parity"]:
                fail(f"{where}: streaming_parity=false — the streaming "
                     "driver diverged from the materializing simulator "
                     "beyond summation-order tolerance")
        if point["has_per_user"]:
            exact_checked += 1
            if point["cost_delta_rel"] > MAX_SCALE_COST_DELTA:
                fail(f"{where}: cost_delta_rel "
                     f"{point['cost_delta_rel']:.3e} > "
                     f"{MAX_SCALE_COST_DELTA} — collapsed and per-user "
                     "solves must share P2's unique optimum")
            if point["users"] >= SCALE_GATE_USERS:
                scale_gated += 1
                if point["collapse_ratio"] < MIN_SCALE_COLLAPSE:
                    fail(f"{where}: collapse_ratio "
                         f"{point['collapse_ratio']:.2f} < "
                         f"{MIN_SCALE_COLLAPSE} — class aggregation "
                         "stopped collapsing at the scale it exists for")
                if (point["seconds_per_user"] >= MIN_GATEABLE_SECONDS
                        and point["speedup"] < MIN_SCALE_SPEEDUP):
                    fail(f"{where}: aggregated speedup "
                         f"{point['speedup']:.2f} < {MIN_SCALE_SPEEDUP} "
                         "over the per-user path at gate scale")
    long_run = bench.get("long_run")
    if long_run is not None:
        where = f"{path}: long run J={long_run['users']} T={long_run['slots']}"
        if long_run["max_violation"] > MAX_VIOLATION:
            fail(f"{where}: max_violation {long_run['max_violation']:.3e} > "
                 f"{MAX_VIOLATION}")
        if long_run["peak_rss_mb"] > MAX_SCALE_RSS_MB:
            fail(f"{where}: peak RSS {long_run['peak_rss_mb']:.0f} MB > "
                 f"{MAX_SCALE_RSS_MB:.0f} MB — the streaming representation "
                 "must keep the long trajectory in budget")
    else:
        print(f"perf_guard: note: {path}: no long run (disabled); "
              "memory-budget gate not exercised")
    if scale_gated == 0:
        print(f"perf_guard: note: {path}: no per-user point with J >= "
              f"{SCALE_GATE_USERS} (quick-mode scale); speedup/collapse "
              "gates not exercised")
    print(f"perf_guard: OK: {path}: {len(points)} scale points "
          f"({exact_checked} cross-checked, {parity_checked} parity-checked, "
          f"{scale_gated} under the at-scale gate)")


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
    "eca.bench_solvers.v3": check_solvers,
    "eca.bench_offline.v1": check_offline,
    "eca.bench_baselines.v1": check_baselines,
    "eca.bench_scale.v1": check_scale,
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
            # Harness summaries carry no benchmark timings, so the shared
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
