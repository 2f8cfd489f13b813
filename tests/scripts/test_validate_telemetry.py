"""Golden tests for scripts/validate_telemetry.py: valid trace and events
artifacts pass, and each documented failure mode (corrupted JSON/JSONL,
schema version mismatch, broken run accounting, trace and events streams
disagreeing) fails with exit 1."""
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

    def validate_events(self, events, dropped=0):
        path = fixtures.write_events(self.dir / "run.events.jsonl", events,
                                     dropped)
        return fixtures.run_script("validate_telemetry.py", "--events", path)

    def validate_lines(self, lines):
        path = self.dir / "run.events.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return fixtures.run_script("validate_telemetry.py",
                                   "--events", str(path))

    def test_valid_events_stream_passes(self):
        events = fixtures.make_events()
        proc = self.validate_events(events)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn(f"{len(events)} events", proc.stdout)
        self.assertIn("2 runs", proc.stdout)

    def test_valid_trace_passes(self):
        trace = self.dir / "run.trace.json"
        trace.write_text(
            '[\n{"name":"sim_run","ph":"X","pid":1,"tid":0,"ts":0,'
            '"dur":5}\n]\n', encoding="utf-8")
        proc = fixtures.run_script("validate_telemetry.py",
                                   "--trace", str(trace))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("1 trace events", proc.stdout)

    def write_trace(self, newton_iterations):
        """A trace ending with the counter events a file flush appends."""
        trace = self.dir / "run.trace.json"
        trace.write_text(
            '[\n{"name":"p2_solve","ph":"X","pid":1,"tid":0,"ts":0,'
            '"dur":5},\n'
            '{"name":"solver.newton_iterations","ph":"C","pid":1,"tid":0,'
            f'"ts":9,"args":{{"value":{newton_iterations}}}}},\n'
            '{"name":"solver.solve_seconds","ph":"C","pid":1,"tid":0,'
            '"ts":9,"args":{"value":0.25}}\n]\n', encoding="utf-8")
        return str(trace)

    def test_counter_events_pass(self):
        proc = fixtures.run_script("validate_telemetry.py",
                                   "--trace", self.write_trace(23))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("3 trace events (2 counters)", proc.stdout)

    def test_counter_event_without_numeric_value_fails(self):
        trace = self.dir / "run.trace.json"
        trace.write_text(
            '[\n{"name":"ipm.iterations","ph":"C","pid":1,"tid":0,"ts":1,'
            '"args":{"value":"12"}}\n]\n', encoding="utf-8")
        proc = fixtures.run_script("validate_telemetry.py",
                                   "--trace", str(trace))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("args.value", proc.stderr)

    def test_streams_agreeing_on_newton_iterations_pass(self):
        # make_events' online-approx run solves slots 1 and 2 in 11 + 12
        # Newton iterations.
        events = fixtures.write_events(self.dir / "run.events.jsonl",
                                       fixtures.make_events())
        proc = fixtures.run_script("validate_telemetry.py",
                                   "--trace", self.write_trace(23),
                                   "--events", events)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("streams agree on 23 Newton iterations", proc.stdout)

    def test_streams_disagreeing_on_newton_iterations_fail(self):
        events = fixtures.write_events(self.dir / "run.events.jsonl",
                                       fixtures.make_events())
        proc = fixtures.run_script("validate_telemetry.py",
                                   "--trace", self.write_trace(24),
                                   "--events", events)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("solver.newton_iterations is 24", proc.stderr)

    def test_nothing_to_validate_is_a_usage_error(self):
        proc = fixtures.run_script("validate_telemetry.py")
        self.assertEqual(proc.returncode, 2)

    def test_slot_splits_not_summing_to_run_total_fail(self):
        events = fixtures.make_events()
        end = next(e for e in events if e["kind"] == "run_end"
                   and e["algorithm"] == "online-approx")
        end["total_cost"] += 0.5
        proc = self.validate_events(events)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("slot cost sum", proc.stderr)
        self.assertIn("online-approx", proc.stderr)

    def test_run_end_solver_totals_must_match_solves(self):
        events = fixtures.make_events()
        end = next(e for e in events if e["kind"] == "run_end"
                   and e["algorithm"] == "online-approx")
        end["newton_iterations"] += 1
        proc = self.validate_events(events)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("newton_iterations", proc.stderr)

    def test_unterminated_run_fails_unless_events_dropped(self):
        events = fixtures.make_events()
        cut = next(i for i, e in enumerate(events) if e["kind"] == "run_end")
        self.assertEqual(self.validate_events(events[:cut]).returncode, 1)
        proc = self.validate_events(events[:cut], dropped=3)
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_missing_field_fails(self):
        events = fixtures.make_events()
        solve = next(e for e in events if e["kind"] == "solve")
        del solve["kkt_dual_residual"]
        proc = self.validate_events(events)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("kkt_dual_residual", proc.stderr)

    def test_retired_event_kind_fails(self):
        events = fixtures.make_events()
        events.insert(1, {"kind": "workers", "scope": "baseline_slots",
                          "work": 78, "min_work": 64, "eligible": False})
        proc = self.validate_events(events)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("unknown event kind", proc.stderr)

    def test_schema_version_mismatch_fails(self):
        # A v3 stream has no experiment labels: the previous schema fails.
        lines = fixtures.events_lines(fixtures.make_events())
        lines[0] = lines[0].replace("eca.events.v4", "eca.events.v3")
        proc = self.validate_lines(lines)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("expected 'eca.events.v4'", proc.stderr)

    def test_unlabelled_experiment_fails(self):
        events = fixtures.make_events()
        del events[0]["label"]
        proc = self.validate_events(events)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("missing field 'label'", proc.stderr)

    def test_corrupted_events_line_fails(self):
        lines = fixtures.events_lines(fixtures.make_events())
        lines[2] = lines[2][:-5]  # truncate one body record mid-object
        proc = self.validate_lines(lines)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("FAIL", proc.stderr)

    def test_events_header_count_mismatch_fails(self):
        lines = fixtures.events_lines(fixtures.make_events())
        header = json.loads(lines[0])
        header["events"] += 1
        lines[0] = json.dumps(header)
        proc = self.validate_lines(lines)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("header claims", proc.stderr)


if __name__ == "__main__":
    unittest.main()
