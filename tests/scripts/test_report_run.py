"""Golden tests for scripts/report_run.py: the competitive-ratio attribution
it derives from an events stream (cumulative ratio, regret split, empty and
short references — checked against hand values), the rendered markdown
sections, run selection, and exit 1 on corrupted or mismatched input."""
import pathlib
import sys
import tempfile
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import fixtures  # noqa: E402

sys.path.insert(0, str(fixtures.SCRIPTS))
import report_run  # noqa: E402


def slots_of(events, algorithm):
    runs = report_run.parse_runs(events)
    return next(r for r in runs
                if r["begin"]["algorithm"] == algorithm)["slots"]


class AttributionTest(unittest.TestCase):
    def setUp(self):
        events = fixtures.make_events()
        self.online = slots_of(events, "online-approx")
        self.offline = slots_of(events, "offline-opt")

    def test_cumulative_ratio(self):
        rows = report_run.attribute(self.online, self.offline)
        self.assertEqual(rows[0]["offline_cost"], 1.5)
        self.assertEqual(rows[0]["ratio_cum"], 1.875 / 1.5)
        self.assertEqual(rows[1]["ratio_cum"], (1.875 + 2.875) / 3.0)
        self.assertEqual(rows[2]["ratio_cum"],
                         (1.875 + 2.875 + 3.875) / 4.5)

    def test_regret_split(self):
        rows = report_run.attribute(self.online, self.offline)
        self.assertEqual(rows[1]["regret_operation"], 2.0 - 1.0)
        self.assertEqual(rows[1]["regret_service_quality"], 0.5 - 0.25)
        self.assertEqual(rows[1]["regret_reconfiguration"], 0.25 - 0.125)
        self.assertEqual(rows[1]["regret_migration"], 0.0)
        # The split decomposes each slot's excess over the reference.
        self.assertEqual(report_run.regret_total(rows[1]), 2.875 - 1.5)

    def test_empty_reference(self):
        self.assertIsNone(report_run.attribute(self.online, []))
        self.assertIsNone(report_run.attribute(self.online, None))

    def test_reference_shorter_than_run(self):
        rows = report_run.attribute(self.online, self.offline[:2])
        # Past the reference's end a slot attributes against a zero-cost
        # slot: its regret is its whole cost.
        self.assertEqual(rows[2]["offline_cost"], 0.0)
        self.assertEqual(report_run.regret_total(rows[2]), 3.875)
        self.assertEqual(rows[2]["regret_operation"], 3.0)
        self.assertEqual(rows[2]["ratio_cum"],
                         (1.875 + 2.875 + 3.875) / 3.0)


def experiment(label, offline_costs, results):
    """One experiment the way sim::run_experiment records it, without the
    runs: per repetition rep_begin with its offline-opt cost, then one
    result per roster algorithm; `results` maps each algorithm, in roster
    order, to its per-repetition (cost, ratio) pairs."""
    events = [{"kind": "experiment_begin", "label": label,
               "repetitions": len(offline_costs),
               "algorithms": len(results)}]
    for rep, offline in enumerate(offline_costs):
        events.append({"kind": "rep_begin", "rep": rep,
                       "offline_cost": offline})
        events += [{"kind": "result", "algorithm": name, "rep": rep,
                    "cost": pairs[rep][0], "ratio": pairs[rep][1]}
                   for name, pairs in results.items()]
        events.append({"kind": "rep_end", "rep": rep})
    events.append({"kind": "experiment_end",
                   "simulations": len(offline_costs) * len(results)})
    return events


class ExperimentTableTest(unittest.TestCase):
    def table(self, events, dropped=0):
        out = []
        report_run.experiment_table(out, {"dropped": dropped}, events)
        return out

    def test_hand_values(self):
        # approx ratios 1.1/1.2/1.3: mean 1.2, n-1 stddev 0.1; greedy
        # 1.4/1.5/1.9: mean 1.6, stddev sqrt(0.14 / 2) = 0.2646; offline
        # costs 10/20/30; approx's excess cut (1.6 - 1.2) / 0.6 = 66.7%.
        events = experiment("3pm", [10.0, 20.0, 30.0], {
            "online-greedy": [(14.0, 1.4), (30.0, 1.5), (57.0, 1.9)],
            "online-approx": [(11.0, 1.1), (24.0, 1.2), (39.0, 1.3)]})
        self.assertEqual(self.table(events), [
            "## Experiment table",
            "",
            "Empirical competitive ratio (online cost / offline-opt cost), "
            "mean ± stddev over repetitions.",
            "",
            "| experiment | online-greedy | online-approx | offline-opt cost "
            "| excess-cost cut vs greedy |",
            "|:--|--:|--:|--:|--:|",
            "| 3pm | 1.600 ± 0.265 | 1.200 ± 0.100 | 20.0 | 66.7% |",
            ""])

    def test_greedy_excess_within_the_denominator_error_is_na(self):
        # Fig 4(b) at mu=1000 read greedy ratios of 0.999 and 1.0000x, where
        # (greedy - approx) / (greedy - 1) is noise: greedy at 1.0005 and
        # 0.999 print n/a; just above the 1e-3 floor the cut prints.
        events = []
        for label, greedy in (("mu=100", 1.0005), ("mu=1000", 0.999),
                              ("mu=10", 1.0011)):
            events += experiment(label, [100.0], {
                "online-greedy": [(100.0 * greedy, greedy)],
                "online-approx": [(100.1, 1.001)]})
        lines = self.table(events)
        self.assertIn("| mu=100 | 1.000 ± 0.000 | 1.001 ± 0.000 | 100.0 "
                      "| n/a |", lines)
        self.assertIn("| mu=1000 | 0.999 ± 0.000 | 1.001 ± 0.000 | 100.0 "
                      "| n/a |", lines)
        self.assertIn("| mu=10 | 1.001 ± 0.000 | 1.001 ± 0.000 | 100.0 "
                      "| 9.1% |", lines)

    def test_welford_matches_running_stats_order(self):
        # Pinned against eca::RunningStats over the same three values: its
        # running mean is 1.432, where sum / n gives 1.4320000000000002.
        xs = [1.604, 1.626, 1.066]
        self.assertNotEqual(sum(xs) / 3, 1.432)
        self.assertEqual(report_run.welford(xs),
                         (1.432, 0.31715611297908158))
        self.assertEqual(report_run.welford([2.5]), (2.5, 0.0))

    def test_headline_columns_need_both_members(self):
        static = experiment("", [10.0, 10.0], {
            "static-once": [(30.0, 3.0), (50.0, 5.0)],
            "online-approx": [(10.0, 1.0), (15.0, 1.5)]})
        lone = experiment("lone", [10.0], {"online-approx": [(11.0, 1.1)]})
        lines = self.table(static + lone)
        # One table per roster; the static factor is the ratio of mean
        # costs (40 / 12.5), and no greedy column without online-greedy.
        self.assertIn("| experiment | static-once | online-approx | "
                      "offline-opt cost | static-once/online-approx cost |",
                      lines)
        # An empty label renders as the experiment's index.
        self.assertIn("| 0 | 4.000 ± 1.414 | 1.250 ± 0.354 | 10.0 | 3.20x |",
                      lines)
        self.assertIn("| experiment | online-approx | offline-opt cost |",
                      lines)
        self.assertIn("| lone | 1.100 ± 0.000 | 10.0 |", lines)

    def test_no_experiment_no_table(self):
        self.assertEqual(self.table(fixtures.run_events(
            "online-approx", fixtures.ONLINE_SLOTS)), [])


class ReportRunTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.dir = pathlib.Path(self._tmp.name)
        self.addCleanup(self._tmp.cleanup)

    def events_file(self, events, dropped=0):
        return fixtures.write_events(self.dir / "run.events.jsonl", events,
                                     dropped)

    def test_report_with_reference(self):
        out = self.dir / "report.md"
        proc = fixtures.run_script(
            "report_run.py", "--events",
            self.events_file(fixtures.make_events()),
            "--algorithm", "online-approx", "--out", str(out))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        text = out.read_text(encoding="utf-8")
        self.assertIn("# Run report: online-approx (rep 0)", text)
        self.assertIn("offline-opt cost: 4.5000", text)
        self.assertIn(f"competitive ratio **{8.625 / 4.5:.4f}**", text)
        self.assertIn("## Ratio trajectory", text)
        self.assertIn("## Worst 3 regret slots", text)
        self.assertIn("## Solver health", text)
        self.assertIn("1 fallback slot(s)", text)
        self.assertIn("## Experiment table", text)
        self.assertIn("no events dropped", text)

    def test_default_selection_skips_offline_run(self):
        proc = fixtures.run_script(
            "report_run.py", "--events",
            self.events_file(fixtures.make_events()))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("# Run report: online-approx", proc.stdout)

    def test_report_without_reference(self):
        proc = fixtures.run_script(
            "report_run.py", "--events",
            self.events_file(fixtures.make_events(offline_slots=[])))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("no offline-opt run in this repetition", proc.stdout)
        self.assertNotIn("## Ratio trajectory", proc.stdout)
        self.assertIn("## Solver health", proc.stdout)

    def test_offline_run_reports_no_solver_records(self):
        # A lone run (no experiment): its report survives dropped events.
        run = fixtures.run_events("offline-opt", fixtures.OFFLINE_SLOTS)
        proc = fixtures.run_script(
            "report_run.py", "--events", self.events_file(run, dropped=2),
            "--algorithm", "offline-opt")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("# Run report: offline-opt", proc.stdout)
        self.assertIn("No solver records", proc.stdout)
        self.assertIn("events dropped 2", proc.stdout)

    def test_dropped_events_fail_the_experiment_table(self):
        proc = fixtures.run_script(
            "report_run.py", "--events",
            self.events_file(fixtures.make_events(), dropped=2))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("2 events dropped", proc.stderr)

    def test_missing_run_fails(self):
        proc = fixtures.run_script(
            "report_run.py", "--events",
            self.events_file(fixtures.make_events()), "--rep", "1")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("rep 1", proc.stderr)

    def test_corrupted_events_fails(self):
        events = self.dir / "run.events.jsonl"
        events.write_text("not a header\n", encoding="utf-8")
        proc = fixtures.run_script("report_run.py", "--events", str(events))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("FAIL", proc.stderr)

    def test_schema_version_mismatch_fails(self):
        lines = fixtures.events_lines(fixtures.make_events())
        lines[0] = lines[0].replace("eca.events.v4", "eca.events.v3")
        events = self.dir / "run.events.jsonl"
        events.write_text("\n".join(lines) + "\n", encoding="utf-8")
        proc = fixtures.run_script("report_run.py", "--events", str(events))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("expected 'eca.events.v4'", proc.stderr)


if __name__ == "__main__":
    unittest.main()
