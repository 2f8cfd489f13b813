"""Golden tests for scripts/perf_guard.py: the property-harness summary
gate (eca.prop_summary.v1), the baseline-evaluation gate
(eca.bench_baselines.v2) with its events-overhead block, and the dispatch — valid inputs pass, corrupted
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
                       "eca.bench_scale.v1", "eca.bench_baselines.v1"):
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

    def test_bench_rebuild_bit_identity_regression_fails(self):
        path = fixtures.write_json(
            self.dir / "bench.json",
            fixtures.make_bench_baselines(rebuild_bit_identical=False))
        proc = fixtures.run_script("perf_guard.py", path)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("rebuild_bit_identical=false", proc.stderr)

    @staticmethod
    def events_block(ratios, median_seconds_off=0.03):
        return {"seconds_off": median_seconds_off * 0.9,
                "seconds_on": median_seconds_off * 0.9,
                "median_seconds_off": median_seconds_off, "ratios": ratios}

    def test_events_overhead_gates_the_median_ratio(self):
        # Two outlier rounds above 2% do not decide the gate; the median
        # does.
        out = self.run_guard(fixtures.make_bench_baselines(
            events_overhead=self.events_block(
                [0.99, 1.08, 1.00, 1.01, 1.30])))
        self.assertIn("events overhead +1.00% (median of 5 rounds", out)

    def test_events_overhead_median_above_bound_fails(self):
        path = fixtures.write_json(
            self.dir / "bench.json",
            fixtures.make_bench_baselines(events_overhead=self.events_block(
                [1.03, 1.01, 1.04])))
        proc = fixtures.run_script("perf_guard.py", path)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("median events-on/off ratio 1.0300", proc.stderr)

    def test_events_overhead_below_floor_is_note(self):
        # The floor applies to the median off leg: a slow round does not
        # lift a quick-mode block over it.
        out = self.run_guard(fixtures.make_bench_baselines(
            events_overhead=self.events_block([1.5, 1.5, 1.5],
                                              median_seconds_off=0.005)))
        self.assertIn("below the gateable floor", out)

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
