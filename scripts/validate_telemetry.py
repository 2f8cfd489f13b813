#!/usr/bin/env python3
"""Schema checker for the observability artifacts.

    scripts/validate_telemetry.py [--trace run.trace.json] \
                                  [--events run.events.jsonl]

Validates:
  * the Chrome-trace file: a strict JSON array, one event per line, each a
    complete-event record ("ph":"X") with numeric ts/dur or a counter
    record ("ph":"C") with a numeric args.value — i.e. loadable by
    chrome://tracing and Perfetto;
  * the eca.events.v4 JSONL stream: a header line with matching
    schema/count, contiguous sequence numbers, known event kinds with the
    right payload fields, and per run (run_begin .. run_end) slot and solve
    records in ascending slot order plus the accounting invariant: the
    per-slot weighted cost splits sum to the run_end total within 1e-9
    relative (float reassociation is the only permitted difference), and
    the run_end slot count and solver totals match the run's records;
  * given both, from the same process: the trace's solver.newton_iterations
    counter total equals the sum of the run_end Newton iteration counts
    (every P2 solve is recorded once in each stream). Skipped when the
    events buffer dropped records.

At least one artifact is required. Exits 0 when valid, 1 with a message on
the first violation.
"""
import argparse
import json
import sys

EVENTS_SCHEMA = "eca.events.v4"
REL_TOL = 1e-9


def fail(message):
    print(f"validate_telemetry: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check_fields(obj, fields, where):
    for name, kind in fields.items():
        if name not in obj:
            fail(f"{where}: missing field '{name}'")
        value = obj[name]
        # bool is an int subclass; require real ints where ints are expected.
        if kind is int and isinstance(value, bool):
            fail(f"{where}: field '{name}' must be an integer, got bool")
        if not isinstance(value, kind):
            fail(f"{where}: field '{name}' has type {type(value).__name__}")


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_trace(path):
    """Returns the trace's counter totals, name -> value."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
            events = json.loads(text)
    except (OSError, json.JSONDecodeError) as err:
        fail(f"{path}: {err}")
    if not isinstance(events, list):
        fail(f"{path}: top level must be a JSON array of trace events")
    # One event per line: every non-bracket line holds exactly one record.
    body_lines = [line for line in text.splitlines()
                  if line.strip() not in ("[", "]", "")]
    if len(body_lines) != len(events):
        fail(f"{path}: {len(events)} events across {len(body_lines)} lines; "
             "expected one event per line")
    counters = {}
    for index, event in enumerate(events):
        where = f"{path}: event[{index}]"
        if not isinstance(event, dict):
            fail(f"{where}: not an object")
        phase = event.get("ph")
        if phase not in ("X", "C"):
            fail(f"{where}: ph is {phase!r}, expected complete event 'X' "
                 "or counter event 'C'")
        timed = ("ts", "dur") if phase == "X" else ("ts",)
        for name in ("name", "pid", "tid") + timed:
            if name not in event:
                fail(f"{where}: missing field '{name}'")
        for name in timed:
            if not is_number(event[name]):
                fail(f"{where}: '{name}' must be numeric")
            if event[name] < 0:
                fail(f"{where}: '{name}' must be non-negative")
        if phase == "C":
            args = event.get("args")
            if not isinstance(args, dict) or not is_number(args.get("value")):
                fail(f"{where}: counter event needs a numeric args.value")
            counters[event["name"]] = args["value"]
    print(f"validate_telemetry: OK: {path}: {len(events)} trace events "
          f"({len(counters)} counters)")
    return counters


NUMBER = (int, float)

# kind -> required payload fields (past seq/kind). Matches the writer in
# src/obs/events.cc.
EVENT_KINDS = {
    "experiment_begin": {"label": str, "repetitions": int,
                         "algorithms": int},
    "rep_begin": {"rep": int, "offline_cost": NUMBER},
    "run_begin": {"algorithm": str, "clouds": int, "users": int,
                  "slots": int},
    "slot": {"slot": int, "cost_operation": NUMBER,
             "cost_service_quality": NUMBER,
             "cost_reconfiguration": NUMBER, "cost_migration": NUMBER},
    "solve": {"slot": int, "newton_iterations": int, "mu_steps": int,
              "warm_started": bool, "warm_fallback": bool,
              "kkt_comp_avg": NUMBER, "kkt_dual_residual": NUMBER},
    "run_end": {"algorithm": str, "slots": int, "newton_iterations": int,
                "warm_fallback_slots": int, "warm_started_slots": int,
                "total_cost": NUMBER},
    "result": {"algorithm": str, "rep": int, "cost": NUMBER,
               "ratio": NUMBER},
    "rep_end": {"rep": int},
    "experiment_end": {"simulations": int},
}


def new_run(event):
    return {"begin": event, "slots": 0, "cost_sum": 0.0, "last_slot": -1,
            "last_solve": -1, "iterations": 0, "warm_fallback": 0,
            "warm_started": 0}


def close_run(run, event, where):
    begin = run["begin"]
    if event["algorithm"] != begin["algorithm"]:
        fail(f"{where}: run_end algorithm {event['algorithm']!r} closes "
             f"run_begin {begin['algorithm']!r}")
    if not event["slots"] == run["slots"] == begin["slots"]:
        fail(f"{where}: {run['slots']} slot records, run_begin declares "
             f"{begin['slots']}, run_end {event['slots']}")
    total = event["total_cost"]
    tolerance = REL_TOL * max(1.0, abs(total))
    if abs(run["cost_sum"] - total) > tolerance:
        fail(f"{where}: {event['algorithm']}: slot cost sum "
             f"{run['cost_sum']!r} differs from run_end total_cost "
             f"{total!r} by {abs(run['cost_sum'] - total):.3e} "
             f"(> {tolerance:.3e})")
    for field, key in (("newton_iterations", "iterations"),
                       ("warm_fallback_slots", "warm_fallback"),
                       ("warm_started_slots", "warm_started")):
        if event[field] != run[key]:
            fail(f"{where}: run_end {field} {event[field]} != "
                 f"{run[key]} summed over the run's solve records")
    return abs(run["cost_sum"] - total)


def validate_events(path):
    """Returns (dropped, summed run_end newton_iterations)."""
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as err:
        fail(f"{path}: {err}")
    if not lines:
        fail(f"{path}: empty events file (expected a header line)")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as err:
        fail(f"{path}: header: {err}")
    for name in ("schema", "events", "dropped"):
        if name not in header:
            fail(f"{path}: header: missing field '{name}'")
    if header["schema"] != EVENTS_SCHEMA:
        fail(f"{path}: header schema is '{header['schema']}', expected "
             f"'{EVENTS_SCHEMA}'")
    if header["events"] != len(lines) - 1:
        fail(f"{path}: header claims {header['events']} events, file has "
             f"{len(lines) - 1} body lines")
    run = None
    runs = 0
    iterations = 0
    worst_drift = 0.0
    for index, line in enumerate(lines[1:]):
        where = f"{path}: line {index + 2}"
        try:
            event = json.loads(line)
        except json.JSONDecodeError as err:
            fail(f"{where}: {err}")
        if event.get("seq") != index:
            fail(f"{where}: seq {event.get('seq')!r} != position {index}")
        kind = event.get("kind")
        if kind not in EVENT_KINDS:
            fail(f"{where}: unknown event kind {kind!r}")
        check_fields(event, EVENT_KINDS[kind], where)
        if kind == "run_begin":
            if run is not None:
                fail(f"{where}: run_begin inside an open run")
            run = new_run(event)
        elif kind in ("slot", "solve", "run_end") and run is None:
            fail(f"{where}: {kind} outside a run")
        elif kind == "slot":
            if event["slot"] <= run["last_slot"]:
                fail(f"{where}: slot {event['slot']} not increasing "
                     f"(previous {run['last_slot']})")
            run["last_slot"] = event["slot"]
            run["slots"] += 1
            run["cost_sum"] += (event["cost_operation"]
                                + event["cost_service_quality"]
                                + event["cost_reconfiguration"]
                                + event["cost_migration"])
        elif kind == "solve":
            if event["slot"] != run["last_slot"] or \
                    event["slot"] <= run["last_solve"]:
                fail(f"{where}: solve for slot {event['slot']} does not "
                     f"follow its slot record")
            run["last_solve"] = event["slot"]
            run["iterations"] += event["newton_iterations"]
            run["warm_fallback"] += event["warm_fallback"]
            run["warm_started"] += event["warm_started"]
        elif kind == "run_end":
            worst_drift = max(worst_drift, close_run(run, event, where))
            iterations += event["newton_iterations"]
            run = None
            runs += 1
        elif run is not None:
            fail(f"{where}: {kind} inside an open run")
    # A full buffer drops the stream's tail, which may cut the last run.
    if run is not None and header["dropped"] == 0:
        fail(f"{path}: run {run['begin']['algorithm']!r} has no run_end")
    print(f"validate_telemetry: OK: {path}: {len(lines) - 1} events, "
          f"{header['dropped']} dropped, {runs} runs (worst slot-sum drift "
          f"{worst_drift:.3e})")
    return header["dropped"], iterations


def check_streams_agree(counters, dropped, iterations):
    if dropped:
        print("validate_telemetry: cross-stream check skipped: "
              f"{dropped} events dropped")
        return
    total = counters.get("solver.newton_iterations", 0)
    if total != iterations:
        fail(f"trace counter solver.newton_iterations is {total}, but the "
             f"events stream's run_end records sum to {iterations}")
    print(f"validate_telemetry: OK: streams agree on {iterations} Newton "
          "iterations")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", default=None,
                        help="Chrome-trace JSON file")
    parser.add_argument("--events", default=None,
                        help="eca.events.v4 JSONL stream")
    args = parser.parse_args()
    if not args.trace and not args.events:
        parser.error("nothing to validate: pass --trace and/or --events")
    counters = validate_trace(args.trace) if args.trace else None
    summary = validate_events(args.events) if args.events else None
    if counters is not None and summary is not None:
        check_streams_agree(counters, *summary)


if __name__ == "__main__":
    main()
