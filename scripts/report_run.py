#!/usr/bin/env python3
"""Markdown run report from the observability artifacts.

    scripts/report_run.py --telemetry run.telemetry.json \
                          [--events run.events.jsonl] \
                          [--out report.md] [--top 5]

Joins an eca.telemetry.v4 file (one simulator run) with an optional
eca.events.v2 stream (the surrounding experiment lifecycle) into a
human-readable report:

  * run summary — dimensions, cost split, empirical competitive ratio when
    an offline reference is attached, trace/event drop counters;
  * ratio trajectory — cumulative online/offline ratio over time, rendered
    as a fixed-width bar chart (the paper's central measurement, now
    visible per slot instead of only as an endpoint);
  * worst-K regret slots — the slots that lose the ratio, decomposed into
    the paper's Cost_op/Cost_sq/Cost_rc/Cost_mg terms (mobility bursts
    show up as migration regret, price spikes as operation regret);
  * solver health — Newton iteration stats and every warm-start fallback
    slot (a regression of the cross-slot warm start);
  * experiment events — per-repetition results and drop accounting from
    the event stream, when provided.

Writes markdown to --out (default: stdout). Exits 1 on malformed input.
"""
import argparse
import json
import sys

BAR_WIDTH = 40


def fail(message):
    print(f"report_run: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def load_telemetry(path):
    try:
        with open(path, encoding="utf-8") as handle:
            run = json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        fail(f"{path}: {err}")
    if run.get("schema") != "eca.telemetry.v4":
        fail(f"{path}: schema is {run.get('schema')!r}, expected "
             "'eca.telemetry.v4'")
    return run


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
    if header.get("schema") != "eca.events.v2":
        fail(f"{path}: header schema is {header.get('schema')!r}, expected "
             "'eca.events.v2'")
    return header, events


def slot_cost(slot):
    return (slot["cost_operation"] + slot["cost_service_quality"]
            + slot["cost_reconfiguration"] + slot["cost_migration"])


def regret_total(slot):
    return (slot["regret_operation"] + slot["regret_service_quality"]
            + slot["regret_reconfiguration"] + slot["regret_migration"])


def bar(value, lo, hi):
    if hi <= lo:
        return ""
    filled = round(BAR_WIDTH * (value - lo) / (hi - lo))
    return "#" * max(0, min(BAR_WIDTH, filled))


def summary_section(out, run):
    out.append(f"# Run report: {run['algorithm']}")
    out.append("")
    out.append(f"- instance: {run['num_clouds']} clouds, "
               f"{run['num_users']} users, {run['num_slots']} slots")
    out.append(f"- total cost: {run['total_cost']:.4f} "
               f"(wall {run['wall_seconds']:.2f}s)")
    if run["has_reference"]:
        out.append(f"- offline-opt cost: {run['offline_total_cost']:.4f} "
                   f"-> empirical competitive ratio **{run['ratio']:.4f}**")
    else:
        out.append("- no offline reference attached (ratio attribution "
                   "unavailable; produce telemetry via the experiment "
                   "runner / ECA_TELEMETRY_DIR to get it)")
    total = run["total_cost"]
    if total > 0 and run["slots"]:
        op = sum(s["cost_operation"] for s in run["slots"])
        sq = sum(s["cost_service_quality"] for s in run["slots"])
        rc = sum(s["cost_reconfiguration"] for s in run["slots"])
        mg = sum(s["cost_migration"] for s in run["slots"])
        out.append(f"- cost split: operation {100 * op / total:.1f}%, "
                   f"service quality {100 * sq / total:.1f}%, "
                   f"reconfiguration {100 * rc / total:.1f}%, "
                   f"migration {100 * mg / total:.1f}%")
    drops = []
    if run["trace_dropped"]:
        drops.append(f"trace dropped {run['trace_dropped']} "
                     "(raise ECA_TRACE_CAP)")
    if run["events_dropped"]:
        drops.append(f"events dropped {run['events_dropped']} "
                     "(raise ECA_EVENTS_CAP)")
    out.append(f"- observability: {'; '.join(drops) if drops else 'no drops'}")
    out.append("")


def ratio_section(out, run, max_rows):
    slots = run["slots"]
    if not run["has_reference"] or not slots:
        return
    out.append("## Ratio trajectory")
    out.append("")
    out.append("Cumulative online/offline cost through each slot "
               "(1.0 = offline parity).")
    out.append("")
    ratios = [s["ratio_cum"] for s in slots]
    lo, hi = min(1.0, min(ratios)), max(ratios)
    # Downsample long runs to ~max_rows evenly spaced slots (always keep
    # the last slot: it is the run's final ratio).
    stride = max(1, len(slots) // max_rows)
    shown = sorted({*range(0, len(slots), stride), len(slots) - 1})
    out.append("| slot | ratio_cum | |")
    out.append("|-----:|----------:|:-----|")
    for index in shown:
        ratio = ratios[index]
        out.append(f"| {slots[index]['slot']} | {ratio:.4f} | "
                   f"`{bar(ratio, lo, hi)}` |")
    out.append("")


def regret_section(out, run, top):
    slots = run["slots"]
    if not run["has_reference"] or not slots:
        return
    worst = sorted(slots, key=regret_total, reverse=True)[:top]
    worst = [s for s in worst if regret_total(s) > 0]
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
    for slot in worst:
        out.append(f"| {slot['slot']} | {regret_total(slot):.4f} | "
                   f"{slot['regret_operation']:.4f} | "
                   f"{slot['regret_service_quality']:.4f} | "
                   f"{slot['regret_reconfiguration']:.4f} | "
                   f"{slot['regret_migration']:.4f} |")
    out.append("")


def solver_section(out, run):
    solves = [s for s in run["slots"] if "solve" in s]
    out.append("## Solver health")
    out.append("")
    if not solves:
        out.append("No solver telemetry (baseline algorithm or "
                   "metrics disabled).")
        out.append("")
        return
    iters = [s["solve"]["newton_iterations"] for s in solves]
    out.append(f"- {run['total_newton_iterations']} Newton iterations over "
               f"{len(solves)} solves (per-slot min {min(iters)}, "
               f"max {max(iters)})")
    out.append(f"- warm-started {run['warm_started_slots']} of "
               f"{len(solves)} slots")
    fallbacks = [s for s in solves if s["solve"]["warm_fallback"]]
    if fallbacks:
        out.append(f"- **{len(fallbacks)} fallback slot(s)** — the "
                   "warm start was rejected here:")
        for slot in fallbacks:
            out.append(f"  - slot {slot['slot']}: warm_fallback "
                       f"({slot['solve']['newton_iterations']} iterations)")
    else:
        out.append("- no warm-start fallbacks")
    out.append("")


def events_section(out, header, events):
    out.append("## Experiment events")
    out.append("")
    out.append(f"- {len(events)} events recorded, "
               f"{header['dropped']} dropped")
    kinds = {}
    for event in events:
        kinds[event["kind"]] = kinds.get(event["kind"], 0) + 1
    out.append("- by kind: "
               + ", ".join(f"{k} x{n}" for k, n in sorted(kinds.items())))
    results = [e for e in events if e["kind"] == "result"]
    if results:
        out.append("")
        out.append("| rep | algorithm | cost | ratio |")
        out.append("|----:|:----------|-----:|------:|")
        for event in results:
            out.append(f"| {event['rep']} | {event['algorithm']} | "
                       f"{event['cost']:.4f} | {event['ratio']:.4f} |")
    out.append("")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--telemetry", required=True,
                        help="eca.telemetry.v4 JSON file")
    parser.add_argument("--events", default=None,
                        help="optional eca.events.v2 JSONL stream")
    parser.add_argument("--out", default=None,
                        help="output markdown path (default: stdout)")
    parser.add_argument("--top", type=int, default=5,
                        help="worst regret slots to list (default 5)")
    args = parser.parse_args()

    run = load_telemetry(args.telemetry)
    out = []
    summary_section(out, run)
    ratio_section(out, run, max_rows=20)
    regret_section(out, run, args.top)
    solver_section(out, run)
    if args.events:
        header, events = load_events(args.events)
        events_section(out, header, events)

    text = "\n".join(out) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"report_run: wrote {args.out} ({len(text.splitlines())} "
              "lines)")
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
