#!/usr/bin/env python3
"""Tests of the per-layer trace fold on synthetic span sets.

    python3 perfbench/fold_test.py
"""

import json
import os
import tempfile
import unittest

import fold


def span(name, tid, start, end):
    return {"name": name, "tid": tid, "ts": float(start), "dur": float(end - start)}


# Two declared workers over the window [0, 100] us:
#   main (tid 0): scenario build [0, 10], then waits in `experiment` [10, 100]
#   tid 1: sim_run [10, 60] > decide [20, 40] > p2_solve [25, 35];
#          an offline solve [60, 90]
#   tid 2: an offline solve [10, 50] > its scaling pass [10, 15]
SPANS = [
    span("bench.make_instance", 0, 0, 10),
    span("experiment", 0, 10, 100),
    span("sim_run", 1, 10, 60),
    span("bench.decide_approx", 1, 20, 40),
    span("p2_solve", 1, 25, 35),
    span("lp_pdhg_solve", 1, 60, 90),
    span("lp_pdhg_solve", 2, 10, 50),
    span("lp_pdhg_scale", 2, 10, 15),
]


class FoldTest(unittest.TestCase):
    def test_self_time_is_span_minus_same_thread_children(self):
        table = fold.fold(SPANS, 2, 0.0, 100.0)["table"]
        self.assertEqual(table["sim_run"]["self_us"], 30.0)
        self.assertEqual(table["bench.decide_approx"]["self_us"], 10.0)
        self.assertEqual(table["p2_solve"]["self_us"], 10.0)
        # 30 on tid 1 (no children) plus 40 - 5 on tid 2.
        self.assertEqual(table["lp_pdhg_solve"]["self_us"], 65.0)
        self.assertEqual(table["lp_pdhg_solve"]["count"], 2)
        self.assertEqual(table["lp_pdhg_solve"]["total_us"], 70.0)

    def test_layers_idle_and_wait_account_for_capacity(self):
        folded = fold.fold(SPANS, 2, 0.0, 100.0)
        self.assertEqual(folded["layers"], {
            "scenario": 10.0, "simulator": 30.0, "online_approx": 10.0,
            "p2": 10.0, "offline": 70.0})
        self.assertEqual(folded["capacity_us"], 200.0)
        self.assertEqual(folded["busy_self_us"], 130.0)
        # One worker idle over [0, 10] and [50, 90], both over [90, 100].
        self.assertEqual(folded["idle_us"], 70.0)
        self.assertEqual(folded["wait_us"], 90.0)
        self.assertEqual(folded["account_err_frac"], 0.0)
        self.assertEqual(folded["malformed"], 0)
        self.assertEqual(folded["busy_by_tid"], {0: 10.0, 1: 80.0, 2: 40.0})

    def test_more_busy_threads_than_declared_breaks_the_account(self):
        folded = fold.fold(SPANS, 1, 0.0, 100.0)
        # Two threads busy over [10, 50]: 130 busy + 10 idle against a
        # capacity of 100.
        self.assertEqual(folded["idle_us"], 10.0)
        self.assertAlmostEqual(folded["account_err_frac"], 0.4)

    def test_improperly_nested_spans_are_counted(self):
        crossing = SPANS + [span("ipm_solve", 2, 45, 55)]
        self.assertEqual(fold.fold(crossing, 2, 0.0, 100.0)["malformed"], 1)

    def test_spans_are_clipped_to_the_window(self):
        folded = fold.fold([span("sim_run", 1, -20, 30)], 1, 0.0, 40.0)
        self.assertEqual(folded["busy_by_tid"], {1: 30.0})
        self.assertEqual(folded["idle_us"], 10.0)

    def test_load_spans_reads_complete_events_only(self):
        events = [
            {"name": "sim_run", "ph": "X", "pid": 1, "tid": 3, "ts": 1.5, "dur": 2.25},
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 3},
        ]
        with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
            json.dump(events, f)
        try:
            self.assertEqual(fold.load_spans(f.name), [span("sim_run", 3, 1.5, 3.75)])
        finally:
            os.remove(f.name)


if __name__ == "__main__":
    unittest.main()
