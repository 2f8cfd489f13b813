#!/usr/bin/env python3
"""End-to-end benchmark of the ECRA reproduction.

    python3 perfbench/run.py --workload fig2-taxi|online-taxi|agg-1e5|all \\
        --seed N --seconds S --trace 0|1

Builds perfbench/ (the ECRA libraries from src/ plus the C++ benchmark binary) under
.bench_build/ (or $CARGO_TARGET_DIR), runs the workload, checks its outputs
and prints a metric table, the run's provenance and, as the last line, one
JSON object {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones of BENCHMARK.json; with --trace 1 a
traced replay of the same units yields the per-layer ones.

Exit codes: 0 = ran and every output checked out; 1 = a wrong output or a
failed build/run; 2 = refused (an ECA_* variable is set, or bad arguments).

    python3 perfbench/run.py --record-references 0-40
rewrites perfbench/references.json with the quality figures of those seeds.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import fold  # noqa: E402

WORKLOADS = ("fig2-taxi", "online-taxi", "agg-1e5")
REFERENCES = os.path.join(HERE, "references.json")
VIOLATION_TOL = 1e-5
# Recorded quality figures must repeat to within the accuracy of the solver
# that produced them: the P2 barrier Newton solve (final mu 1e-9) for
# online-approx's cost, the first-order offline LP (5e-4 tolerance, ~0.1% of
# the objective) for the rest.
REFERENCE_RTOL = {"approx_cost": 1e-8, "offline_cost": 2e-3, "approx_ratio": 2e-3}
ACCOUNT_BOUND = 0.02  # per-layer table must account for capacity within 2%
RUN_TIMEOUT_S = 170

# Layer groups whose self time each workload is expected to be dominated by.
PREDICTED = {
    "fig2-taxi": ("offline",),
    "online-taxi": ("ipm", "slot_lp"),
    "agg-1e5": ("agg", "p2"),
}


def metric_units(kind):
    """{name: unit} of the end_to_end or per_layer metrics in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def refuse_eca_environment():
    knobs = sorted(k for k in os.environ if k.startswith("ECA_"))
    if knobs:
        fail(f"refusing to run with {', '.join(knobs)} set: ECA_* tuning, "
             "observability and fault knobs change the measured program", 2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no ECRA source tree next to {HERE} (expected ../src)")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "perfbench"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail(f"build failed: {' '.join(step)} (log: {log_path})")
    return os.path.join(out, "perfbench")


def run_binary(binary, workload, seed, seconds, trace_path=None):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds))]
    if trace_path:
        cmd += ["--trace-out", trace_path]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: perfbench exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        fail(f"{workload}: perfbench exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, p):
    """Nearest-rank percentile."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def load_references():
    if not os.path.isfile(REFERENCES):
        return {}
    with open(REFERENCES) as f:
        return json.load(f)


def check_outputs(raw, checks):
    """Appends (name, ok, detail) for every output check of a perfbench record."""
    units = raw["units"]
    quality = raw["quality"]
    workload = raw["workload"]
    worst = max(u["max_violation"] for u in units)
    checks.append(("feasible", worst <= VIOLATION_TOL,
                   f"max_violation {worst:.3g} <= {VIOLATION_TOL:g}"))
    checks.append(("approx_cost>0", quality["approx_cost"] > 0, ""))
    if workload == "fig2-taxi":
        # run_experiment aborts unless every offline solve is optimal, so a
        # returned record already certifies the offline status.
        ratio = quality["approx_ratio"]
        solves = sum(u["offline_solves"] for u in units)
        checks.append(("offline_optimal", solves > 0,
                       f"{solves} offline solves returned optimal"))
        checks.append(("ratio>=1", ratio >= 1 - 1e-3,
                       f"approx_ratio {ratio:.6f} (offline-opt is a lower bound)"))
    if workload == "agg-1e5":
        checks.append(("classes", all(u["classes_max"] >= 1 for u in units), ""))
    scale = raw["scale"]
    per_unit = scale["slots"] * (scale["instances"] if workload == "fig2-taxi" else 1)
    if workload != "agg-1e5":
        expected = per_unit * len(units)
        got_a = len(raw["decide_s"]["approx"])
        got_b = len(raw["decide_s"]["baseline"])
        checks.append(("decide_samples", got_a == expected and got_b == 4 * expected,
                       f"approx {got_a}/{expected}, baselines {got_b}/{4 * expected}"))
    # fig2-taxi's table does not depend on the seed: one reference ("*").
    recorded = load_references().get(workload, {})
    ref = recorded.get(str(raw["seed"]), recorded.get("*"))
    if ref is None:
        checks.append(("reference", True,
                       f"no recorded reference for seed {raw['seed']}; "
                       "invariant checks only"))
    else:
        for key, want in ref.items():
            got = quality[key]
            ok = abs(got - want) <= REFERENCE_RTOL[key] * abs(want)
            checks.append((f"reference.{key}", ok, f"{got!r} vs recorded {want!r}"))


def stratified_median(units, value):
    """Mean over strata of the median within each stratum, so that a run's
    mix of input classes (online-taxi's hourly cases) does not move it."""
    by_stratum = {}
    for u in units:
        by_stratum.setdefault(u["stratum"], []).append(value(u))
    return statistics.mean(statistics.median(v) for v in by_stratum.values())


def e2e_metrics(raw):
    units = raw["units"]
    return {
        "setup_s": stratified_median(units, lambda u: u["setup_s"]),
        "wall_s": stratified_median(units, lambda u: u["wall_s"]),
        "user_slots_per_s": stratified_median(
            units, lambda u: u["user_slots"] / u["wall_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def failure_counts(raw):
    units = raw["units"]
    attempted = sum(u["decides"] + u["offline_solves"] for u in units)
    failed = (sum(u["infeasible"] for u in units)
              + int(raw["counters"].get("baseline.lp_failures", 0)))
    return attempted, failed


def layer_metrics(raw, checks):
    trace = raw["trace"]
    spans = fold.load_spans(trace["file"])
    threads = raw["threads"]["requested"]
    folded = fold.fold(spans, threads, trace["start_us"], trace["end_us"])
    table = folded["table"]
    counters = trace["counters"]
    n = len(trace["units"])
    main_tid = trace["main_tid"]

    def total(name):
        return table.get(name, {}).get("total_us", 0.0) * 1e-6 / n

    def self_s(name):
        return table.get(name, {}).get("self_us", 0.0) * 1e-6 / n

    def mean_span_s(name):
        row = table.get(name, {"count": 0})
        return row["total_us"] * 1e-6 / row["count"] if row["count"] else 0.0

    def per_unit(counter):
        return counters.get(counter, 0) / n

    def ratio(a, b):
        return a / b if b else 0.0

    approx = [v * 1e3 for v in raw["decide_s"]["approx"]]
    baseline = [v * 1e3 for v in raw["decide_s"]["baseline"]]
    attempted, failed = failure_counts(raw)
    units = raw["units"]
    traced_wall = statistics.median(u["wall_s"] for u in trace["units"])
    timed_wall = statistics.median(u["wall_s"] for u in units[:n])
    experiment_s = table.get("experiment", {}).get("total_us", 0.0) * 1e-6
    worker_busy = sum(v for tid, v in folded["busy_by_tid"].items() if tid != main_tid)
    busy = folded["busy_self_us"]
    capacity = folded["capacity_us"]
    layers = folded["layers"]
    predicted = sum(layers.get(layer, 0.0) for layer in PREDICTED[raw["workload"]])

    metrics = {
        "approx_cost": raw["quality"]["approx_cost"],
        "approx_decide_p50_ms": percentile(approx, 0.5),
        "approx_decide_p90_ms": percentile(approx, 0.9),
        "approx_decide_samples": len(approx),
        "baseline_decide_p50_ms": percentile(baseline, 0.5),
        "baseline_decide_p90_ms": percentile(baseline, 0.9),
        "baseline_decide_samples": len(baseline),
        "offline_cost": raw["quality"]["offline_cost"],
        "approx_ratio": raw["quality"]["approx_ratio"],
        "max_violation": max(u["max_violation"] for u in units),
        "failed_frac": ratio(failed, attempted),
        "scenario.build_s": mean_span_s("bench.make_instance"),
        "runner.pool_busy_frac": ratio(worker_busy * 1e-6, threads * experiment_s),
        "runner.tasks": per_unit("runner.simulations") + sum(
            u["offline_solves"] for u in trace["units"]) / n,
        "runner.wait_s": folded["wait_us"] * 1e-6 / n,
        "offline.solve_s": total("lp_pdhg_scale") + total("lp_pdhg_solve"),
        "offline.pdhg_iterations": per_unit("lp.pdhg_iterations"),
        "offline.pdhg_kernel_s": per_unit("lp.pdhg_kernel_seconds"),
        "offline.pdhg_scale_s": per_unit("lp.pdhg_scale_seconds"),
        "offline.pdhg_kkt_s": per_unit("lp.pdhg_kkt_seconds"),
        "offline.pdhg_restarts": per_unit("lp.pdhg_restarts"),
        "online_approx.decide_s": total("bench.decide_approx"),
        "p2.solve_s": layers.get("p2", 0.0) * 1e-6 / n,
        "p2.newton_iterations": per_unit("solver.newton_iterations"),
        "p2.newton_per_solve": ratio(counters.get("solver.newton_iterations", 0),
                                     counters.get("solver.solves", 0)),
        "p2.factor_s": per_unit("solver.factor_seconds"),
        "p2.warm_fallbacks": per_unit("solver.warm_fallbacks"),
        "baselines.decide_s": total("bench.decide_baseline"),
        "slot_lp.refresh_s": total("slot_lp_refresh"),
        "ipm.solve_s": total("ipm_solve"),
        "ipm.iterations": per_unit("ipm.iterations"),
        "ipm.iters_per_solve": ratio(counters.get("ipm.iterations", 0),
                                     counters.get("ipm.solves", 0)),
        "ipm.warm_accepted": per_unit("ipm.warm_accepted"),
        "baselines.lp_failures": per_unit("baseline.lp_failures"),
        "simulator.self_s": self_s("sim_run") + self_s("bench.simulate"),
        "agg.run_s": total("bench.agg_run"),
        "agg.self_s": self_s("bench.agg_run"),
        "agg.classes_max": max(u["classes_max"] for u in units),
        "agg.collapse_ratio": statistics.median(u["collapse_ratio"] for u in units),
        "fold.busy_frac": ratio(busy, capacity),
        "fold.idle_frac": ratio(folded["idle_us"], capacity),
        "fold.account_err_frac": folded["account_err_frac"],
        "fold.predicted_share": ratio(predicted, busy),
        "obs.trace_overhead_frac": ratio(traced_wall, timed_wall) - 1.0,
        "obs.trace_dropped": trace["dropped"],
    }
    checks.append(("trace_dropped==0", trace["dropped"] == 0, f"{trace['dropped']} dropped"))
    checks.append(("trace_nesting", folded["malformed"] == 0,
                   f"{folded['malformed']} improperly nested spans"))
    checks.append(("fold_accounts", folded["account_err_frac"] <= ACCOUNT_BOUND,
                   f"self + idle vs threads x wall: {folded['account_err_frac']:.2e} "
                   f"<= {ACCOUNT_BOUND}"))
    checks.append(("traced_quality_matches", raw["traced_quality_matches"],
                   "traced replay reproduces the untraced costs bitwise"))
    return metrics, folded


def print_layer_table(workload, folded):
    capacity = folded["capacity_us"]
    busy = folded["busy_self_us"]
    print(f"\nper-layer self time, {workload} (capacity = threads x traced wall "
          f"= {capacity * 1e-6:.3f} s)")
    print(f"  {'layer':<18}{'self_s':>10}{'of busy':>9}{'of cap':>9}")
    rows = sorted(folded["layers"].items(), key=lambda kv: -kv[1])
    for layer, us in rows:
        print(f"  {layer:<18}{us * 1e-6:>10.4f}{us / busy:>9.1%}{us / capacity:>9.1%}")
    idle = folded["idle_us"]
    print(f"  {'(idle)':<18}{idle * 1e-6:>10.4f}{'':>9}{idle / capacity:>9.1%}")
    print(f"  {'(runner wait)':<18}{folded['wait_us'] * 1e-6:>10.4f}   "
          "(driving thread blocked on the pool; not capacity)")
    top = rows[0][0] if rows else "none"
    want = PREDICTED[workload]
    verdict = "confirmed" if top in want else f"NOT confirmed: {top} dominated"
    print(f"  dominant layer: {top} (predicted {'/'.join(want)}): {verdict}")


def run_workload(binary, workload, seed, seconds, trace):
    checks = []
    trace_path = None
    if trace:
        trace_path = os.path.join(build_dir(), f"trace_{workload}_{seed}.json")
    raw = run_binary(binary, workload, seed, seconds, trace_path)
    check_outputs(raw, checks)
    attempted, failed = failure_counts(raw)
    if trace:
        metrics, folded = layer_metrics(raw, checks)
        units = metric_units("per_layer")
        os.remove(trace_path)
    else:
        metrics, folded = e2e_metrics(raw), None
        units = metric_units("end_to_end")
    if metrics.keys() != units.keys():
        fail(f"metrics {sorted(metrics.keys() ^ units.keys())} disagree with "
             "BENCHMARK.json")

    print(f"== {workload} seed {seed} ({len(raw['units'])} units, "
          f"{raw['scale']['users']} users x {raw['scale']['slots']} slots x "
          f"{raw['scale']['instances']} instances per unit)")
    for name, value in metrics.items():
        print(f"  {name:<26}{value:>16.6g} {units[name]}")
    print(f"  {'failed/attempted':<26}{failed:>10d} / {attempted}")
    if folded is not None:
        print_layer_table(workload, folded)
    print("checks:")
    for name, ok, detail in checks:
        print(f"  [{'ok' if ok else 'FAIL'}] {name} {detail}")
    return {
        "raw": raw,
        "correct": all(ok for _, ok, _ in checks),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def provenance(raw):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or sha
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "hardware_concurrency": raw["threads"]["hardware_concurrency"],
        "git_sha": sha,
        "build_type": raw["build_type"],
        "threads": raw["threads"],
        "load": "closed loop, one process; each unit waits for the previous",
    }


def parse_seeds(spec):
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record_references(binary, spec):
    refs = load_references()
    for workload in WORKLOADS:
        seeds = ["*"] if workload == "fig2-taxi" else parse_seeds(spec)
        for seed in seeds:
            quality = run_binary(binary, workload, 1 if seed == "*" else seed, 0)["quality"]
            keys = ("approx_cost", "offline_cost", "approx_ratio")
            refs.setdefault(workload, {})[str(seed)] = {
                k: quality[k] for k in keys if quality[k] or k == "approx_cost"}
            print(f"{workload} seed {seed}: {refs[workload][str(seed)]}", flush=True)
    with open(REFERENCES, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-references", metavar="SEEDS")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0:
        fail("--seed and --seconds must be non-negative", 2)
    refuse_eca_environment()
    binary = build()
    if args.record_references:
        record_references(binary, args.record_references)
        return 0
    if args.workload is None:
        fail("--workload is required", 2)

    started = time.time()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(binary, w, args.seed, args.seconds, args.trace)
               for w in names}
    first = next(iter(results.values()))
    print("provenance: " + json.dumps(provenance(first["raw"]), sort_keys=True))
    print(f"elapsed: {time.time() - started:.1f} s")
    if len(results) == 1:
        metrics = first["metrics"]
    else:
        metrics = {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
