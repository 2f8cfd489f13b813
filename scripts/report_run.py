#!/usr/bin/env python3
"""Markdown run report, derived from an eca.events.v4 stream alone.

    scripts/report_run.py --events run.events.jsonl [--algorithm NAME] \
                          [--rep N] [--out report.md] [--top 5]

Selects one recorded run — the first run of algorithm NAME (default: the
first run that is not offline-opt), in repetition N when given — and
renders:

  * run summary — dimensions, cost split, the empirical competitive ratio
    against the offline-opt run of the same repetition, and the stream's
    drop counter;
  * ratio trajectory — cumulative online/offline ratio over time, rendered
    as a fixed-width bar chart (the paper's central measurement, visible
    per slot instead of only as an endpoint);
  * worst-K regret slots — the slots that lose the ratio, decomposed into
    the paper's Cost_op/Cost_sq/Cost_rc/Cost_mg terms (mobility bursts
    show up as migration regret, price spikes as operation regret);
  * solver health — Newton iteration stats, KKT residuals at exit and every
    warm-start fallback slot (a regression of the cross-slot warm start);
  * experiment table — when the stream holds experiments, the paper's
    figure table: one row per experiment (its label, or its index when the
    label is empty), each roster algorithm's competitive ratio as mean ±
    stddev (RunningStats' Welford order, n-1), the offline-opt mean cost,
    and the headline columns whose roster pair is present
    (static-once/online-approx cost, online-approx's excess-cost cut vs
    online-greedy). Consecutive experiments sharing a roster share a table.

The runner (sim::run_experiment) records the offline-opt run of every
repetition before the algorithms' runs, so ratio and regret attribution
need nothing beyond the stream. Writes markdown to --out (default: stdout).
Exits 1 on malformed input, when no run matches, or when a stream holding
experiments dropped events (the table would silently miss repetitions).
"""
import argparse
import json
import math
import sys

SCHEMA = "eca.events.v4"
OFFLINE = "offline-opt"
COMPONENTS = ("operation", "service_quality", "reconfiguration", "migration")
BAR_WIDTH = 40


def fail(message):
    print(f"report_run: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def load_events(path):
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as err:
        fail(f"{path}: {err}")
    if not lines:
        fail(f"{path}: empty events file")
    try:
        header = json.loads(lines[0])
        events = [json.loads(line) for line in lines[1:]]
    except json.JSONDecodeError as err:
        fail(f"{path}: {err}")
    if not isinstance(header, dict) or header.get("schema") != SCHEMA:
        schema = header.get("schema") if isinstance(header, dict) else None
        fail(f"{path}: header schema is {schema!r}, expected {SCHEMA!r}")
    return header, events


def parse_runs(events):
    """Groups the stream into runs: one dict per run_begin .. run_end with
    its repetition (None outside one), slot records and solve records keyed
    by slot. A run cut by a full buffer has end None."""
    runs = []
    rep = None
    run = None
    for event in events:
        kind = event["kind"]
        if kind == "rep_begin":
            rep = event["rep"]
        elif kind == "rep_end":
            rep = None
        elif kind == "run_begin":
            run = {"rep": rep, "begin": event, "slots": [], "solves": {},
                   "end": None}
            runs.append(run)
        elif kind == "slot" and run is not None:
            run["slots"].append(event)
        elif kind == "solve" and run is not None:
            run["solves"][event["slot"]] = event
        elif kind == "run_end" and run is not None:
            run["end"] = event
            run = None
    return runs


def algorithm(run):
    return run["begin"]["algorithm"]


def select_run(runs, name, rep):
    """The first run of algorithm `name` (default: the first run that is
    not offline-opt, else the first run) in repetition `rep` (any when
    None), and the offline-opt run of the same repetition (None when the
    selected run is itself offline-opt or the repetition has none)."""
    pool = [r for r in runs if rep is None or r["rep"] == rep]
    if name is not None:
        matches = [r for r in pool if algorithm(r) == name]
    else:
        matches = [r for r in pool if algorithm(r) != OFFLINE] or pool
    if not matches:
        fail(f"no run of {name or 'any algorithm'}"
             + (f" in rep {rep}" if rep is not None else ""))
    run = matches[0]
    if run["end"] is None:
        fail(f"run {algorithm(run)!r} has no run_end (the stream was cut by "
             "a full buffer; raise ECA_EVENTS_CAP)")
    reference = None
    if algorithm(run) != OFFLINE:
        reference = next((r for r in runs if algorithm(r) == OFFLINE
                          and r["rep"] == run["rep"] and r["end"]), None)
    return run, reference


def slot_cost(slot):
    return sum(slot["cost_" + c] for c in COMPONENTS)


def attribute(slots, reference):
    """Competitive-ratio attribution of `slots` against the `reference`
    trajectory (the offline-opt run of the same repetition): per slot the
    reference's cost, the cumulative online/offline ratio through the slot
    and the per-component regret split (Σ regret == cost - offline_cost).
    Slots past the reference's end attribute against a zero-cost slot
    (regret == cost). Returns None for an empty reference."""
    if not reference:
        return None
    rows = []
    cum_cost = 0.0
    cum_offline = 0.0
    for t, slot in enumerate(slots):
        ref = reference[t] if t < len(reference) else None
        row = {"slot": slot["slot"],
               "offline_cost": slot_cost(ref) if ref else 0.0}
        for c in COMPONENTS:
            row["regret_" + c] = (slot["cost_" + c]
                                  - (ref["cost_" + c] if ref else 0.0))
        cum_cost += slot_cost(slot)
        cum_offline += row["offline_cost"]
        row["ratio_cum"] = cum_cost / cum_offline if cum_offline > 0 else 0.0
        rows.append(row)
    return rows


def regret_total(row):
    return sum(row["regret_" + c] for c in COMPONENTS)


def bar(value, lo, hi):
    if hi <= lo:
        return ""
    filled = round(BAR_WIDTH * (value - lo) / (hi - lo))
    return "#" * max(0, min(BAR_WIDTH, filled))


def summary_section(out, header, run, reference):
    begin, end = run["begin"], run["end"]
    rep = f" (rep {run['rep']})" if run["rep"] is not None else ""
    out.append(f"# Run report: {algorithm(run)}{rep}")
    out.append("")
    out.append(f"- instance: {begin['clouds']} clouds, {begin['users']} "
               f"users, {begin['slots']} slots")
    total = end["total_cost"]
    out.append(f"- total cost: {total:.4f}")
    if reference is not None:
        offline = reference["end"]["total_cost"]
        ratio = total / offline if offline > 0 else 0.0
        out.append(f"- offline-opt cost: {offline:.4f} "
                   f"-> empirical competitive ratio **{ratio:.4f}**")
    elif algorithm(run) != OFFLINE:
        out.append("- no offline-opt run in this repetition (ratio "
                   "attribution unavailable; record the run through "
                   "sim::run_experiment, e.g. examples/taxi_day, to get it)")
    if total > 0 and run["slots"]:
        shares = ", ".join(
            f"{c.replace('_', ' ')} "
            f"{100 * sum(s['cost_' + c] for s in run['slots']) / total:.1f}%"
            for c in COMPONENTS)
        out.append(f"- cost split: {shares}")
    dropped = header["dropped"]
    out.append(f"- observability: events dropped {dropped} (raise "
               "ECA_EVENTS_CAP)" if dropped
               else "- observability: no events dropped")
    out.append("")


def ratio_section(out, rows, max_rows):
    if not rows:
        return
    out.append("## Ratio trajectory")
    out.append("")
    out.append("Cumulative online/offline cost through each slot "
               "(1.0 = offline parity).")
    out.append("")
    ratios = [row["ratio_cum"] for row in rows]
    lo, hi = min(1.0, min(ratios)), max(ratios)
    # Downsample long runs to ~max_rows evenly spaced slots (always keep
    # the last slot: it is the run's final ratio).
    stride = max(1, len(rows) // max_rows)
    shown = sorted({*range(0, len(rows), stride), len(rows) - 1})
    out.append("| slot | ratio_cum | |")
    out.append("|-----:|----------:|:-----|")
    for index in shown:
        ratio = ratios[index]
        out.append(f"| {rows[index]['slot']} | {ratio:.4f} | "
                   f"`{bar(ratio, lo, hi)}` |")
    out.append("")


def regret_section(out, rows, top):
    if not rows:
        return
    worst = sorted(rows, key=regret_total, reverse=True)[:top]
    worst = [row for row in worst if regret_total(row) > 0]
    out.append(f"## Worst {len(worst)} regret slots")
    out.append("")
    if not worst:
        out.append("No slot exceeded the offline reference's cost.")
        out.append("")
        return
    out.append("Slots losing the most against the offline trajectory, "
               "split into the paper's cost terms.")
    out.append("")
    out.append("| slot | regret | operation | service quality | "
               "reconfiguration | migration |")
    out.append("|-----:|-------:|----------:|----------------:|"
               "----------------:|----------:|")
    for row in worst:
        out.append(f"| {row['slot']} | {regret_total(row):.4f} | "
                   + " | ".join(f"{row['regret_' + c]:.4f}"
                                for c in COMPONENTS) + " |")
    out.append("")


def solver_section(out, run):
    solves = [run["solves"][t] for t in sorted(run["solves"])]
    out.append("## Solver health")
    out.append("")
    if not solves:
        out.append("No solver records (this algorithm exposes none).")
        out.append("")
        return
    iters = [s["newton_iterations"] for s in solves]
    out.append(f"- {run['end']['newton_iterations']} Newton iterations over "
               f"{len(solves)} solves (per-slot min {min(iters)}, "
               f"max {max(iters)})")
    out.append(f"- worst KKT at exit: complementarity "
               f"{max(s['kkt_comp_avg'] for s in solves):.3e}, dual residual "
               f"{max(s['kkt_dual_residual'] for s in solves):.3e}")
    out.append(f"- warm-started {run['end']['warm_started_slots']} of "
               f"{len(solves)} slots")
    fallbacks = [s for s in solves if s["warm_fallback"]]
    if fallbacks:
        out.append(f"- **{len(fallbacks)} fallback slot(s)** — the "
                   "warm start was rejected here:")
        for solve in fallbacks:
            out.append(f"  - slot {solve['slot']}: warm_fallback "
                       f"({solve['newton_iterations']} iterations)")
    else:
        out.append("- no warm-start fallbacks")
    out.append("")


def welford(xs):
    """Mean and n-1 standard deviation in RunningStats' order (Welford), so
    the table's digits are the ones the runner's own statistics give."""
    n, mean, m2 = 0, 0.0, 0.0
    for x in xs:
        n += 1
        delta = x - mean
        mean += delta / n
        m2 += delta * (x - mean)
    return mean, math.sqrt(m2 / (n - 1)) if n > 1 else 0.0


def experiments(events):
    """One dict per experiment_begin: its row label (its index when the
    label is empty), the offline-opt costs of its repetitions and, per
    roster algorithm in first-record order, its result ratios and costs."""
    out = []
    for event in events:
        kind = event["kind"]
        if kind == "experiment_begin":
            out.append({"label": event["label"] or str(len(out)),
                        "offline": [], "ratios": {}, "costs": {}})
        elif kind == "rep_begin" and out:
            out[-1]["offline"].append(event["offline_cost"])
        elif kind == "result" and out:
            name = event["algorithm"]
            out[-1]["ratios"].setdefault(name, []).append(event["ratio"])
            out[-1]["costs"].setdefault(name, []).append(event["cost"])
    return out


def mean_of(exp, field, name):
    return welford(exp[field][name])[0]


# The paper's two headline columns, each shown only when both roster
# members are present: the static-once/online-approx mean-cost factor
# (Section I, "up to 4x") and online-approx's excess-cost reduction against
# online-greedy (Figs. 2/3, "up to 60/70%").
def static_factor(exp):
    factor = (mean_of(exp, "costs", "static-once")
              / mean_of(exp, "costs", "online-approx"))
    return f"{factor:.2f}x"


# Online-greedy's excess ratio must exceed this for the cut to mean
# anything: twice the 5e-4 relative tolerance of the PDHG offline-opt
# solve behind the denominator. Below it, greedy's excess is within the
# denominator's error and the quotient is noise.
MIN_GREEDY_EXCESS = 1e-3


def greedy_gain(exp):
    greedy = mean_of(exp, "ratios", "online-greedy")
    approx = mean_of(exp, "ratios", "online-approx")
    if greedy - 1.0 <= MIN_GREEDY_EXCESS:
        return "n/a"
    return f"{100.0 * (greedy - approx) / (greedy - 1.0):.1f}%"


HEADLINES = (
    ("static-once/online-approx cost", {"static-once", "online-approx"},
     static_factor),
    ("excess-cost cut vs greedy",
     {"online-greedy", "online-approx"}, greedy_gain),
)


def experiment_table(out, header, events):
    """One row per experiment, one table per run of consecutive experiments
    sharing a roster: ratio mean ± stddev per algorithm, the offline-opt
    mean cost and the headline columns whose roster pair is present."""
    exps = experiments(events)
    if not exps:
        return
    if header["dropped"]:
        fail(f"{header['dropped']} events dropped: the experiment table "
             "needs the whole record (raise ECA_EVENTS_CAP)")
    out.append("## Experiment table")
    out.append("")
    out.append("Empirical competitive ratio (online cost / offline-opt "
               "cost), mean ± stddev over repetitions.")
    roster = None
    for exp in exps:
        if list(exp["ratios"]) != roster:
            out.append("")
            roster = list(exp["ratios"])
            headlines = [h for h in HEADLINES if h[1] <= set(roster)]
            columns = (["experiment"] + roster + ["offline-opt cost"]
                       + [h[0] for h in headlines])
            out.append("| " + " | ".join(columns) + " |")
            out.append("|:--|" + "--:|" * (len(columns) - 1))
        cells = [exp["label"]]
        for name in roster:
            mean, stddev = welford(exp["ratios"][name])
            cells.append(f"{mean:.3f} ± {stddev:.3f}")
        cells.append(f"{welford(exp['offline'])[0]:.1f}")
        cells += [h[2](exp) for h in headlines]
        out.append("| " + " | ".join(cells) + " |")
    out.append("")


def render(header, events, name=None, rep=None, top=5):
    run, reference = select_run(parse_runs(events), name, rep)
    rows = attribute(run["slots"], reference["slots"] if reference else None)
    out = []
    summary_section(out, header, run, reference)
    ratio_section(out, rows, max_rows=20)
    regret_section(out, rows, top)
    solver_section(out, run)
    experiment_table(out, header, events)
    return "\n".join(out) + "\n"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--events", required=True,
                        help="eca.events.v4 JSONL stream")
    parser.add_argument("--algorithm", default=None,
                        help="run to report (default: the first run that "
                             "is not offline-opt)")
    parser.add_argument("--rep", type=int, default=None,
                        help="repetition to report from (default: any)")
    parser.add_argument("--out", default=None,
                        help="output markdown path (default: stdout)")
    parser.add_argument("--top", type=int, default=5,
                        help="worst regret slots to list (default 5)")
    args = parser.parse_args()

    header, events = load_events(args.events)
    text = render(header, events, args.algorithm, args.rep, args.top)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"report_run: wrote {args.out} ({len(text.splitlines())} "
              "lines)")
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
