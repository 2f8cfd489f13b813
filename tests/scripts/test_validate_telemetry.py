"""Golden tests for scripts/validate_telemetry.py: a valid artifact set
passes, and each documented failure mode (corrupted JSON/JSONL, schema
version mismatch, broken accounting invariants) fails with exit 1."""
import json
import pathlib
import sys
import tempfile
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import fixtures  # noqa: E402


class ValidateTelemetryTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.dir = pathlib.Path(self._tmp.name)
        self.addCleanup(self._tmp.cleanup)

    def write_telemetry(self, payload):
        return fixtures.write_json(self.dir / "run.telemetry.json", payload)

    def test_valid_telemetry_passes(self):
        path = self.write_telemetry(fixtures.make_telemetry())
        proc = fixtures.run_script("validate_telemetry.py",
                                   "--telemetry", path)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("OK", proc.stdout)
        self.assertIn("2 slots", proc.stdout)

    def test_valid_telemetry_with_reference_passes(self):
        path = self.write_telemetry(
            fixtures.make_telemetry(with_reference=True))
        proc = fixtures.run_script("validate_telemetry.py",
                                   "--telemetry", path)
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_corrupted_json_fails(self):
        path = self.dir / "run.telemetry.json"
        path.write_text('{"schema": "eca.telemetry.v4", "slo',
                        encoding="utf-8")
        proc = fixtures.run_script("validate_telemetry.py",
                                   "--telemetry", str(path))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("FAIL", proc.stderr)

    def test_schema_version_mismatch_fails(self):
        run = fixtures.make_telemetry()
        run["schema"] = "eca.telemetry.v2"
        proc = fixtures.run_script("validate_telemetry.py",
                                   "--telemetry", self.write_telemetry(run))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("eca.telemetry.v4", proc.stderr)

    def test_broken_cost_accounting_fails(self):
        run = fixtures.make_telemetry()
        run["total_cost"] += 0.5
        proc = fixtures.run_script("validate_telemetry.py",
                                   "--telemetry", self.write_telemetry(run))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("total_cost", proc.stderr)

    def test_missing_field_fails(self):
        run = fixtures.make_telemetry()
        del run["warm_started_slots"]
        proc = fixtures.run_script("validate_telemetry.py",
                                   "--telemetry", self.write_telemetry(run))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("warm_started_slots", proc.stderr)

    def test_valid_events_stream_passes(self):
        telemetry = self.write_telemetry(fixtures.make_telemetry())
        events = self.dir / "run.events.jsonl"
        events.write_text("\n".join(fixtures.make_events_lines()) + "\n",
                          encoding="utf-8")
        proc = fixtures.run_script("validate_telemetry.py",
                                   "--telemetry", telemetry,
                                   "--events", str(events))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("3 events", proc.stdout)

    def test_corrupted_events_line_fails(self):
        telemetry = self.write_telemetry(fixtures.make_telemetry())
        lines = fixtures.make_events_lines()
        lines[2] = lines[2][:-5]  # truncate one body record mid-object
        events = self.dir / "run.events.jsonl"
        events.write_text("\n".join(lines) + "\n", encoding="utf-8")
        proc = fixtures.run_script("validate_telemetry.py",
                                   "--telemetry", telemetry,
                                   "--events", str(events))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("FAIL", proc.stderr)

    def test_events_header_count_mismatch_fails(self):
        telemetry = self.write_telemetry(fixtures.make_telemetry())
        lines = fixtures.make_events_lines()
        header = json.loads(lines[0])
        header["events"] += 1
        lines[0] = json.dumps(header)
        events = self.dir / "run.events.jsonl"
        events.write_text("\n".join(lines) + "\n", encoding="utf-8")
        proc = fixtures.run_script("validate_telemetry.py",
                                   "--telemetry", telemetry,
                                   "--events", str(events))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("header claims", proc.stderr)


if __name__ == "__main__":
    unittest.main()
