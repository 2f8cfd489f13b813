#!/usr/bin/env python3
"""Schema checker for the observability artifacts.

    scripts/validate_telemetry.py --telemetry run.telemetry.json \
                                  [--trace run.trace.json] \
                                  [--events run.events.jsonl]

Validates:
  * the telemetry file against schema eca.telemetry.v4 — required fields,
    types, the accounting invariant that the per-slot weighted cost splits
    sum to total_cost within 1e-9 relative (float reassociation is the only
    permitted difference), and — when a reference is attached — that each
    slot's regret split sums to cost_total - offline_cost within the same
    tolerance;
  * the optional Chrome-trace file: a strict JSON array, one event per
    line, each a complete-event record ("ph":"X") with numeric ts/dur —
    i.e. loadable by chrome://tracing and Perfetto;
  * the optional eca.events.v2 JSONL stream: a header line with matching
    schema/count, contiguous sequence numbers, known event kinds with the
    right payload fields, and monotone slot ordering within each run scope.

Exits 0 when valid, 1 with a message on the first violation.
"""
import argparse
import json
import sys

SCHEMA = "eca.telemetry.v4"
EVENTS_SCHEMA = "eca.events.v2"
REL_TOL = 1e-9

RUN_FIELDS = {
    "schema": str,
    "algorithm": str,
    "num_clouds": int,
    "num_users": int,
    "num_slots": int,
    "total_cost": (int, float),
    "wall_seconds": (int, float),
    "has_reference": bool,
    "offline_total_cost": (int, float),
    "ratio": (int, float),
    "trace_dropped": int,
    "events_dropped": int,
    "total_newton_iterations": int,
    "warm_started_slots": int,
    "warm_fallback_slots": int,
    "slots": list,
}

SLOT_FIELDS = {
    "slot": int,
    "cost_operation": (int, float),
    "cost_service_quality": (int, float),
    "cost_reconfiguration": (int, float),
    "cost_migration": (int, float),
}

# Present on every slot exactly when the run has a reference attached.
SLOT_REFERENCE_FIELDS = {
    "offline_cost": (int, float),
    "ratio_cum": (int, float),
    "regret_operation": (int, float),
    "regret_service_quality": (int, float),
    "regret_reconfiguration": (int, float),
    "regret_migration": (int, float),
}

SOLVE_FIELDS = {
    "newton_iterations": int,
    "mu_steps": int,
    "kkt_comp_avg": (int, float),
    "kkt_dual_residual": (int, float),
    "warm_started": bool,
    "warm_fallback": bool,
    "solve_seconds": (int, float),
    "assembly_seconds": (int, float),
    "factor_seconds": (int, float),
}


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


def validate_telemetry(path):
    try:
        with open(path, encoding="utf-8") as handle:
            run = json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        fail(f"{path}: {err}")
    check_fields(run, RUN_FIELDS, path)
    if run["schema"] != SCHEMA:
        fail(f"{path}: schema is '{run['schema']}', expected '{SCHEMA}'")
    if len(run["slots"]) != run["num_slots"]:
        fail(f"{path}: {len(run['slots'])} slot records for "
             f"num_slots={run['num_slots']}")
    has_reference = run["has_reference"]
    slot_sum = 0.0
    for index, slot in enumerate(run["slots"]):
        where = f"{path}: slots[{index}]"
        check_fields(slot, SLOT_FIELDS, where)
        if slot["slot"] != index:
            fail(f"{where}: slot index {slot['slot']} != position {index}")
        cost_total = (slot["cost_operation"] + slot["cost_service_quality"]
                      + slot["cost_reconfiguration"]
                      + slot["cost_migration"])
        slot_sum += cost_total
        if has_reference:
            check_fields(slot, SLOT_REFERENCE_FIELDS, where)
            regret_sum = (slot["regret_operation"]
                          + slot["regret_service_quality"]
                          + slot["regret_reconfiguration"]
                          + slot["regret_migration"])
            excess = cost_total - slot["offline_cost"]
            tol = REL_TOL * max(1.0, abs(cost_total))
            if abs(regret_sum - excess) > tol:
                fail(f"{where}: regret split sums to {regret_sum!r}, "
                     f"expected cost - offline_cost = {excess!r}")
        elif "ratio_cum" in slot:
            fail(f"{where}: attribution fields present without "
                 "has_reference")
        if "solve" in slot:
            check_fields(slot["solve"], SOLVE_FIELDS, f"{where}.solve")
    total = run["total_cost"]
    tolerance = REL_TOL * max(1.0, abs(total))
    if abs(slot_sum - total) > tolerance:
        fail(f"{path}: slot cost sum {slot_sum!r} differs from total_cost "
             f"{total!r} by {abs(slot_sum - total):.3e} (> {tolerance:.3e})")
    if has_reference and run["slots"]:
        final_ratio = run["slots"][-1]["ratio_cum"]
        # Numerator and denominator each carry their own <=1e-9 relative
        # reassociation drift; allow an order of magnitude of headroom.
        if abs(final_ratio - run["ratio"]) > 1e-8 * max(1.0, run["ratio"]):
            fail(f"{path}: final ratio_cum {final_ratio!r} differs from "
                 f"run ratio {run['ratio']!r}")
    solved = sum(1 for slot in run["slots"] if "solve" in slot)
    print(f"validate_telemetry: OK: {path}: {run['algorithm']}, "
          f"{run['num_slots']} slots ({solved} with solver stats), "
          f"slot-sum drift {abs(slot_sum - total):.3e}")


def validate_trace(path):
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
    for index, event in enumerate(events):
        where = f"{path}: event[{index}]"
        if not isinstance(event, dict):
            fail(f"{where}: not an object")
        for name in ("name", "ph", "pid", "tid", "ts", "dur"):
            if name not in event:
                fail(f"{where}: missing field '{name}'")
        if event["ph"] != "X":
            fail(f"{where}: ph is '{event['ph']}', expected complete "
                 "event 'X'")
        for name in ("ts", "dur"):
            if not isinstance(event[name], (int, float)) \
                    or isinstance(event[name], bool):
                fail(f"{where}: '{name}' must be numeric")
            if event[name] < 0:
                fail(f"{where}: '{name}' must be non-negative")
    print(f"validate_telemetry: OK: {path}: {len(events)} trace events")


# kind -> required payload fields (past seq/kind). Matches the writer in
# src/obs/events.cc.
EVENT_KINDS = {
    "experiment_begin": {"repetitions": int, "algorithms": int},
    "rep_begin": {"rep": int, "offline_cost": (int, float)},
    "run_begin": {"algorithm": str, "clouds": int, "users": int,
                  "slots": int},
    "workers": {"scope": str, "work": int, "min_work": int,
                "eligible": bool},
    "slot": {"slot": int, "cost_operation": (int, float),
             "cost_service_quality": (int, float),
             "cost_reconfiguration": (int, float),
             "cost_migration": (int, float)},
    "solve": {"slot": int, "newton_iterations": int, "mu_steps": int,
              "warm_started": bool, "warm_fallback": bool},
    "run_end": {"algorithm": str, "slots": int, "newton_iterations": int,
                "warm_fallback_slots": int, "total_cost": (int, float)},
    "result": {"algorithm": str, "rep": int, "cost": (int, float),
               "ratio": (int, float)},
    "rep_end": {"rep": int},
    "experiment_end": {"simulations": int},
}


def validate_events(path):
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
    # Slot/solve events must be monotone within each run scope — this is
    # the driving-thread, ascending-slot-order contract.
    last_slot = {"slot": -1, "solve": -1}
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
            last_slot = {"slot": -1, "solve": -1}
        elif kind in ("slot", "solve"):
            if event["slot"] <= last_slot[kind]:
                fail(f"{where}: {kind} event slot {event['slot']} not "
                     f"increasing (previous {last_slot[kind]})")
            last_slot[kind] = event["slot"]
    print(f"validate_telemetry: OK: {path}: {len(lines) - 1} events, "
          f"{header['dropped']} dropped")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--telemetry", required=True,
                        help="eca.telemetry.v4 JSON file")
    parser.add_argument("--trace", default=None,
                        help="optional Chrome-trace JSON file")
    parser.add_argument("--events", default=None,
                        help="optional eca.events.v2 JSONL stream")
    args = parser.parse_args()
    validate_telemetry(args.telemetry)
    if args.trace:
        validate_trace(args.trace)
    if args.events:
        validate_events(args.events)


if __name__ == "__main__":
    main()
