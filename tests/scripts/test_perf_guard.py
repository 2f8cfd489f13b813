"""Golden tests for scripts/perf_guard.py: the property-harness summary
gate (eca.prop_summary.v1), the baseline-evaluation gate
(eca.bench_baselines.v1) and the dispatch — valid inputs pass, corrupted
JSON, unknown or retired schemas and regressions fail with exit 1."""
import pathlib
import sys
import tempfile
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import fixtures  # noqa: E402


class PerfGuardTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.dir = pathlib.Path(self._tmp.name)
        self.addCleanup(self._tmp.cleanup)

    def test_clean_prop_summary_passes(self):
        path = fixtures.write_json(self.dir / "prop_summary.json",
                                   fixtures.make_prop_summary())
        proc = fixtures.run_script("perf_guard.py", path)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("50 scenarios verified", proc.stdout)

    def test_prop_summary_with_failures_fails(self):
        path = fixtures.write_json(self.dir / "prop_summary.json",
                                   fixtures.make_prop_summary(failures=2))
        proc = fixtures.run_script("perf_guard.py", path)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("2 oracle violation(s)", proc.stderr)
        # Each failure's seed and replay pointer are surfaced.
        self.assertIn("seed 40", proc.stderr)
        self.assertIn("prop_failure_0.replay", proc.stderr)

    def test_prop_summary_with_zero_scenarios_fails(self):
        summary = fixtures.make_prop_summary()
        summary["scenarios"] = 0
        path = fixtures.write_json(self.dir / "prop_summary.json", summary)
        proc = fixtures.run_script("perf_guard.py", path)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("zero scenarios", proc.stderr)

    def test_corrupted_json_fails(self):
        path = self.dir / "prop_summary.json"
        path.write_text('{"schema": "eca.prop_summary.v1",',
                        encoding="utf-8")
        proc = fixtures.run_script("perf_guard.py", str(path))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("FAIL", proc.stderr)

    def test_unknown_schema_fails(self):
        summary = fixtures.make_prop_summary()
        summary["schema"] = "eca.prop_summary.v99"
        path = fixtures.write_json(self.dir / "prop_summary.json", summary)
        proc = fixtures.run_script("perf_guard.py", path)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("unknown schema", proc.stderr)

    def test_retired_bench_schemas_fail(self):
        # No gate reads these schemas any more, so a stale file must fail
        # rather than pass unchecked.
        for schema in ("eca.bench_solvers.v3", "eca.bench_offline.v1",
                       "eca.bench_scale.v1"):
            with self.subTest(schema=schema):
                path = fixtures.write_json(self.dir / "bench.json",
                                           {"schema": schema, "points": []})
                proc = fixtures.run_script("perf_guard.py", path)
                self.assertEqual(proc.returncode, 1)
                self.assertIn("unknown schema", proc.stderr)

    def test_bench_meta_checks_ok_passes(self):
        path = fixtures.write_json(
            self.dir / "bench.json",
            fixtures.make_bench_baselines(prop_smoke={
                "ok": True, "scenarios": 5, "failures": 0,
                "wall_seconds": 0.07}))
        proc = fixtures.run_script("perf_guard.py", path)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("prop smoke at bench time", proc.stdout)

    def test_bench_meta_checks_failure_fails(self):
        path = fixtures.write_json(
            self.dir / "bench.json",
            fixtures.make_bench_baselines(prop_smoke={
                "ok": False, "scenarios": 5, "failures": 1,
                "wall_seconds": 0.07}))
        proc = fixtures.run_script("perf_guard.py", path)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("fails verification", proc.stderr)

    def test_bench_meta_checks_skip_is_note(self):
        path = fixtures.write_json(
            self.dir / "bench.json",
            fixtures.make_bench_baselines(prop_smoke={"skipped": True}))
        proc = fixtures.run_script("perf_guard.py", path)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("prop smoke skipped", proc.stdout)

    def test_bench_bit_identity_regression_fails(self):
        path = fixtures.write_json(
            self.dir / "bench.json",
            fixtures.make_bench_baselines(bit_identical=False))
        proc = fixtures.run_script("perf_guard.py", path)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("bit_identical=false", proc.stderr)

    def run_guard(self, payload):
        path = fixtures.write_json(self.dir / "bench.json", payload)
        proc = fixtures.run_script("perf_guard.py", path)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return proc.stdout

    def test_unengaged_baseline_points_under_the_floor_name_it(self):
        # 15 clouds x 16 users x 8 slots = 1920 cells < 2 x 4096.
        out = self.run_guard(fixtures.make_bench_baselines(
            [("perf-opt", True, 16, 8), ("stat-opt", True, 32, 8)]))
        self.assertIn("(work-volume floor", out)
        self.assertNotIn("hardware-concurrency cap", out)

    def test_unengaged_baseline_points_over_the_floor_name_the_cap(self):
        out = self.run_guard(fixtures.make_bench_baselines(
            [("perf-opt", True, 512, 8), ("online-greedy", False, 512, 8)]))
        self.assertIn("hardware-concurrency cap on 1 of 2 points", out)
        self.assertIn("not slot-separable on 1 of 2 points", out)


if __name__ == "__main__":
    unittest.main()
