"""Shared fixtures for the script golden tests: minimal-but-valid
observability artifacts (eca.telemetry.v4, eca.events.v2) and gate inputs
(eca.prop_summary.v1, eca.bench_solvers.v3) built in memory, plus a helper
that runs a repo script as a subprocess the way check.sh does."""
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


def make_solve_stats(iterations=7):
    return {
        "newton_iterations": iterations,
        "mu_steps": 3,
        "kkt_comp_avg": 1e-9,
        "kkt_dual_residual": 1e-10,
        "warm_started": False,
        "warm_fallback": False,
        "solve_seconds": 0.001,
        "assembly_seconds": 0.0005,
        "factor_seconds": 0.0002,
    }


def make_telemetry(num_slots=2, with_reference=False, with_solve=True):
    """A valid eca.telemetry.v4 run record whose per-slot splits sum to
    total_cost exactly (integers scaled by powers of two, so the accounting
    invariant holds bit-exactly)."""
    slots = []
    total = 0.0
    offline_total = 0.0
    for t in range(num_slots):
        cost_total = 2.0 + t
        slot = {
            "slot": t,
            "cost_operation": 1.0 + t,
            "cost_service_quality": 0.5,
            "cost_reconfiguration": 0.25,
            "cost_migration": 0.25,
        }
        if with_solve:
            slot["solve"] = make_solve_stats(iterations=5 + t)
        total += cost_total
        if with_reference:
            offline_cost = 1.5 + t
            offline_total += offline_cost
            slot.update({
                "offline_cost": offline_cost,
                # Validator only pins the LAST slot's ratio_cum to the run
                # ratio; intermediate values just need to be numeric.
                "ratio_cum": 1.0,
                "regret_operation": cost_total - offline_cost,
                "regret_service_quality": 0.0,
                "regret_reconfiguration": 0.0,
                "regret_migration": 0.0,
            })
        slots.append(slot)
    ratio = total / offline_total if with_reference else 0.0
    if with_reference:
        slots[-1]["ratio_cum"] = ratio
    return {
        "schema": "eca.telemetry.v4",
        "algorithm": "online-approx",
        "num_clouds": 3,
        "num_users": 4,
        "num_slots": num_slots,
        "total_cost": total,
        "wall_seconds": 0.01,
        "has_reference": with_reference,
        "offline_total_cost": offline_total,
        "ratio": ratio,
        "trace_dropped": 0,
        "events_dropped": 0,
        "total_newton_iterations": sum(5 + t for t in range(num_slots)),
        "warm_started_slots": 0,
        "warm_fallback_slots": 0,
        "slots": slots,
    }


def make_events_lines():
    """A minimal valid eca.events.v2 stream (header + 3 body lines)."""
    body = [
        {"seq": 0, "kind": "run_begin", "algorithm": "online-approx",
         "clouds": 3, "users": 4, "slots": 2},
        {"seq": 1, "kind": "slot", "slot": 0, "cost_operation": 1.0,
         "cost_service_quality": 0.5, "cost_reconfiguration": 0.25,
         "cost_migration": 0.25},
        {"seq": 2, "kind": "run_end", "algorithm": "online-approx",
         "slots": 2, "newton_iterations": 11, "warm_fallback_slots": 0,
         "total_cost": 5.0},
    ]
    header = {"schema": "eca.events.v2", "events": len(body), "dropped": 0}
    return [json.dumps(header)] + [json.dumps(event) for event in body]


def make_prop_summary(failures=0):
    details = []
    for k in range(failures):
        details.append({
            "seed": 40 + k,
            "violation": "offline IPM did not converge: numerical-error",
            "replay": "schema=eca.prop.v1\nseed=1\n",
            "replay_path": f"/tmp/prop_failure_{k}.replay",
        })
    return {
        "schema": "eca.prop_summary.v1",
        "scenarios": 50,
        "failures": failures,
        "offline_legs_run": 42,
        "budget_exhausted": False,
        "wall_seconds": 0.7,
        "worst_kkt": 2.1e-8,
        "worst_infeasibility": 2.8e-9,
        "failure_details": details,
    }


def make_bench_solvers(bit_identical=True, prop_smoke=None):
    """A minimal eca.bench_solvers.v3 payload; pass prop_smoke (a dict like
    the one bench_common's write_meta_json emits) to attach the
    verification-gate provenance block."""
    bench = {
        "schema": "eca.bench_solvers.v3",
        "slot_sweep": {"points": [{
            "users": 32,
            "bit_identical": bit_identical,
            "pool_engaged": False,
            "speedup": 1.0,
            "slot_ms_1_thread": 0.4,
        }]},
    }
    if prop_smoke is not None:
        bench["meta"] = {
            "git_sha": "0123456789ab",
            "build_type": "Release",
            "timestamp_utc": "2026-08-07T00:00:00Z",
            "checks": {"prop_smoke": prop_smoke},
        }
    return bench


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)
