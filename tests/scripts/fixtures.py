"""Shared fixtures for the script golden tests: minimal-but-valid
observability artifacts (eca.events.v4 streams) built in memory, plus a
helper that runs a repo script as a subprocess the way check.sh does."""
import json
import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
SCRIPTS = REPO_ROOT / "scripts"


def run_script(name, *args):
    """Runs scripts/<name> with the current interpreter; returns the
    completed process with captured text output."""
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True, text=True, check=False)


def run_events(algorithm, slots, solves=(), clouds=3, users=4):
    """The records obs::emit_run writes for one finished run: run_begin,
    per slot a `slot` record (plus a `solve` record for the slots listed in
    `solves`), run_end with the run's totals. `slots` holds one
    (operation, service_quality, reconfiguration, migration) weighted cost
    split per slot."""
    events = [{"kind": "run_begin", "algorithm": algorithm,
               "clouds": clouds, "users": users, "slots": len(slots)}]
    total = 0.0
    iterations = 0
    for t, (op, sq, rc, mg) in enumerate(slots):
        events.append({"kind": "slot", "slot": t, "cost_operation": op,
                       "cost_service_quality": sq,
                       "cost_reconfiguration": rc, "cost_migration": mg})
        total += op + sq + rc + mg
        if t in solves:
            iterations += 10 + t
            events.append({"kind": "solve", "slot": t,
                           "newton_iterations": 10 + t, "mu_steps": 5,
                           "warm_started": False, "warm_fallback": t == 1,
                           "kkt_comp_avg": 1e-11,
                           "kkt_dual_residual": 2e-10})
    events.append({"kind": "run_end", "algorithm": algorithm,
                   "slots": len(slots), "newton_iterations": iterations,
                   "warm_fallback_slots": int(1 in solves),
                   "warm_started_slots": 0, "total_cost": total})
    return events


# The hand-checked trajectories of the attribution tests: online slot costs
# 1.875, 2.875, 3.875 against an offline-opt reference of 1.5 per slot.
ONLINE_SLOTS = [(1.0 + t, 0.5, 0.25, 0.125) for t in range(3)]
OFFLINE_SLOTS = [(1.0, 0.25, 0.125, 0.125)] * 3


def make_events(offline_slots=OFFLINE_SLOTS, online_slots=ONLINE_SLOTS):
    """A one-repetition experiment stream the way sim::run_experiment
    records it: rep_begin, the offline-opt run (omitted when offline_slots
    is empty), the online-approx run and its result, rep_end."""
    offline_total = sum(map(sum, offline_slots))
    online_total = sum(map(sum, online_slots))
    events = [{"kind": "experiment_begin", "label": "3pm", "repetitions": 1,
               "algorithms": 1},
              {"kind": "rep_begin", "rep": 0, "offline_cost": offline_total}]
    if offline_slots:
        events += run_events("offline-opt", offline_slots)
    events += run_events("online-approx", online_slots, solves=(1, 2))
    events += [{"kind": "result", "algorithm": "online-approx", "rep": 0,
                "cost": online_total,
                "ratio": online_total / offline_total
                if offline_total else 0.0},
               {"kind": "rep_end", "rep": 0},
               {"kind": "experiment_end", "simulations": 1}]
    return events


def events_lines(events, dropped=0):
    """Serializes events as an eca.events.v4 stream: the header line, then
    one record per line stamped with its sequence number."""
    header = {"schema": "eca.events.v4", "events": len(events),
              "dropped": dropped}
    body = [json.dumps({"seq": seq, **event})
            for seq, event in enumerate(events)]
    return [json.dumps(header)] + body


def write_events(path, events, dropped=0):
    path.write_text("\n".join(events_lines(events, dropped)) + "\n",
                    encoding="utf-8")
    return str(path)
