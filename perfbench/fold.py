"""Folds a Chrome-format span trace into a per-layer self-time table.

A span's self time is its duration minus the durations of its direct
children, where a child is a span on the same thread whose interval lies
inside the parent's. Spans named in WAIT_SPANS are a thread waiting for
others (the experiment runner's driving thread while its pool works); their
self time is reported as wait and excluded from busy time.

Accounting over the traced window [start, end] with `threads` declared
workers: capacity = threads x (end - start); busy = the union of non-wait
spans per thread; idle = the integral of max(0, threads - active threads).
Then  sum(non-wait self) + idle == capacity  holds exactly when the spans
nest properly and no more than `threads` threads are ever busy at once;
`account_err_frac` is the relative deviation from that identity.
"""

import json
from collections import defaultdict

WAIT_SPANS = frozenset({"bench.run_experiment", "experiment"})

# Span name -> layer, matching the module that owns the code under the span.
LAYERS = {
    "bench.make_instance": "scenario",
    "bench.instance_cb": "runner",
    "bench.factory": "runner",
    "lp_pdhg_scale": "offline",
    "lp_pdhg_solve": "offline",
    "bench.simulate": "simulator",
    "sim_run": "simulator",
    "bench.reset": "algorithm_reset",
    "bench.decide_approx": "online_approx",
    "slot_decide": "online_approx",
    "p2_solve": "p2",
    "p2_active": "p2",
    "p2_certify": "p2",
    "newton_iter": "p2",
    "bench.decide_baseline": "baselines",
    "bench.decide_other": "baselines",
    "slot_lp_refresh": "slot_lp",
    "ipm_solve": "ipm",
    "bench.agg_run": "agg",
}

# Trace timestamps are printed with 1 ns resolution; allow that much slack
# when deciding containment.
_EPS_US = 2e-3


def load_spans(path):
    with open(path) as f:
        events = json.load(f)
    return [
        {"name": e["name"], "tid": e["tid"], "ts": float(e["ts"]),
         "dur": float(e["dur"])}
        for e in events
        if e.get("ph") == "X"
    ]


def _clip(lo, hi, start, end):
    return max(0.0, min(hi, end) - max(lo, start))


def fold(spans, threads, start_us, end_us, wait_spans=WAIT_SPANS):
    """Returns the per-name table and the capacity accounting (all in us)."""
    by_tid = defaultdict(list)
    for s in spans:
        by_tid[s["tid"]].append(s)

    table = defaultdict(lambda: {"count": 0, "total_us": 0.0, "self_us": 0.0})
    malformed = 0
    busy_intervals = []  # (start, end) of busy coverage, per thread merged
    busy_by_tid = {}
    for tid, items in by_tid.items():
        items.sort(key=lambda s: (s["ts"], -s["dur"]))
        stack = []  # [span, child_sum]
        selfs = []

        def close(entry):
            span, child_sum = entry
            selfs.append((span, span["dur"] - child_sum))

        for s in items:
            while stack and stack[-1][0]["ts"] + stack[-1][0]["dur"] <= s["ts"] + _EPS_US:
                close(stack.pop())
            if stack:
                parent = stack[-1]
                if s["ts"] + s["dur"] > parent[0]["ts"] + parent[0]["dur"] + _EPS_US:
                    malformed += 1
                parent[1] += s["dur"]
            stack.append([s, 0.0])
        while stack:
            close(stack.pop())
        for span, self_us in selfs:
            row = table[span["name"]]
            row["count"] += 1
            row["total_us"] += span["dur"]
            row["self_us"] += self_us

        # Busy coverage of this thread: union of non-wait spans.
        cover = sorted(
            (s["ts"], s["ts"] + s["dur"]) for s in items
            if s["name"] not in wait_spans
        )
        merged = []
        for lo, hi in cover:
            if merged and lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        busy_by_tid[tid] = sum(_clip(lo, hi, start_us, end_us) for lo, hi in merged)
        busy_intervals.extend(merged)

    # Sweep the active-thread count over the window.
    edges = []
    for lo, hi in busy_intervals:
        lo, hi = max(lo, start_us), min(hi, end_us)
        if hi > lo:
            edges.append((lo, 1))
            edges.append((hi, -1))
    edges.sort()
    idle = 0.0
    active = 0
    cursor = start_us
    for at, delta in edges:
        span_us = at - cursor
        idle += max(0, threads - active) * span_us
        active += delta
        cursor = at
    idle += max(0, threads - active) * (end_us - cursor)

    capacity = threads * max(end_us - start_us, 0.0)
    busy_self = sum(r["self_us"] for n, r in table.items() if n not in wait_spans)
    wait_self = sum(r["self_us"] for n, r in table.items() if n in wait_spans)
    err = abs(busy_self + idle - capacity) / capacity if capacity > 0 else 1.0
    layers = defaultdict(float)
    for name, row in table.items():
        if name not in wait_spans:
            layers[LAYERS.get(name, "other")] += row["self_us"]
    return {
        "table": dict(table),
        "layers": dict(layers),
        "busy_by_tid": busy_by_tid,
        "capacity_us": capacity,
        "busy_self_us": busy_self,
        "wait_us": wait_self,
        "idle_us": idle,
        "malformed": malformed,
        "account_err_frac": err,
    }
