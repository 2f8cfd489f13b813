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
        self.assertIn("## Experiment results", text)
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
        proc = fixtures.run_script(
            "report_run.py", "--events",
            self.events_file(fixtures.make_events(), dropped=2),
            "--algorithm", "offline-opt")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("# Run report: offline-opt", proc.stdout)
        self.assertIn("No solver records", proc.stdout)
        self.assertIn("events dropped 2", proc.stdout)

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
        lines[0] = lines[0].replace("eca.events.v3", "eca.events.v2")
        events = self.dir / "run.events.jsonl"
        events.write_text("\n".join(lines) + "\n", encoding="utf-8")
        proc = fixtures.run_script("report_run.py", "--events", str(events))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("eca.events.v3", proc.stderr)


if __name__ == "__main__":
    unittest.main()
