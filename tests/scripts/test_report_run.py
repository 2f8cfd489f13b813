"""Golden tests for scripts/report_run.py: a valid run renders the
expected markdown sections, and corrupted / schema-mismatched input fails
with exit 1."""
import pathlib
import sys
import tempfile
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import fixtures  # noqa: E402


class ReportRunTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.dir = pathlib.Path(self._tmp.name)
        self.addCleanup(self._tmp.cleanup)

    def test_report_without_reference(self):
        path = fixtures.write_json(self.dir / "run.telemetry.json",
                                   fixtures.make_telemetry())
        proc = fixtures.run_script("report_run.py", "--telemetry", path)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("# Run report: online-approx", proc.stdout)
        self.assertIn("no offline reference attached", proc.stdout)
        self.assertIn("## Solver health", proc.stdout)

    def test_report_with_reference_and_events(self):
        path = fixtures.write_json(
            self.dir / "run.telemetry.json",
            fixtures.make_telemetry(with_reference=True))
        events = self.dir / "run.events.jsonl"
        events.write_text("\n".join(fixtures.make_events_lines()) + "\n",
                          encoding="utf-8")
        out = self.dir / "report.md"
        proc = fixtures.run_script("report_run.py", "--telemetry", path,
                                   "--events", str(events),
                                   "--out", str(out))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        text = out.read_text(encoding="utf-8")
        self.assertIn("empirical competitive ratio", text)
        self.assertIn("## Ratio trajectory", text)
        self.assertIn("## Experiment events", text)

    def test_corrupted_telemetry_fails(self):
        path = self.dir / "run.telemetry.json"
        path.write_text("{not json", encoding="utf-8")
        proc = fixtures.run_script("report_run.py", "--telemetry", str(path))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("FAIL", proc.stderr)

    def test_schema_version_mismatch_fails(self):
        run = fixtures.make_telemetry()
        run["schema"] = "eca.telemetry.v1"
        path = fixtures.write_json(self.dir / "run.telemetry.json", run)
        proc = fixtures.run_script("report_run.py", "--telemetry", path)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("eca.telemetry.v4", proc.stderr)

    def test_corrupted_events_fails(self):
        path = fixtures.write_json(self.dir / "run.telemetry.json",
                                   fixtures.make_telemetry())
        events = self.dir / "run.events.jsonl"
        events.write_text("not a header\n", encoding="utf-8")
        proc = fixtures.run_script("report_run.py", "--telemetry", path,
                                   "--events", str(events))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("FAIL", proc.stderr)


if __name__ == "__main__":
    unittest.main()
