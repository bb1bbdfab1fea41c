"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

They run small operation lists, not the workloads, and take a few
seconds.  The file name keeps them out of the repository's pytest run.
"""

import shutil
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import Op  # noqa: E402

CLI = run.load_program()

# one small operation per route, touching every measured layer
SMALL = [
    Op("rse_summaries", ("rse-block", "--m", "12", "--theta", "0.8", "--summaries"),
       {"M": 12, "theta": 0.8}),
    Op("pmf", ("pmf", "--m", "60", "--k", "25", "--theta", "0.7"),
       {"m": 60, "k": 25, "theta": 0.7}),
    Op("cdf", ("cdf", "--m", "60", "--k", "60", "--theta", "0.6"),
       {"m": 60, "k": 60, "theta": 0.6}),
    Op("quantile", ("quantile", "--m", "40", "--k", "39", "--theta", "0.9", "--p", "0.999999"),
       {"m": 40, "k": 39, "theta": 0.9, "p": 0.999999}),
    Op("pmf_gamma", ("pmf", "--m", "1500", "--k", "1500", "--theta", "0.9", "--method", "auto"),
       {"m": 1500, "k": 1500, "theta": 0.9}),
    Op("pmf_inf", ("pmf", "--m", "inf", "--k", "30", "--theta", "0.6"),
       {"m": float("inf"), "k": 30, "theta": 0.6}),
    Op("moments", ("moments", "--m", "5000", "--k", "2000", "--theta", "0.75"),
       {"m": 5000, "k": 2000, "theta": 0.75}),
    Op("gfun", ("gfun", "--m", "300", "--k", "100", "--theta", "0.5", "--kind", "cf",
                "--arg", "0.1"),
       {"m": 300, "k": 100, "theta": 0.5, "kind": "cf", "arg": 0.1}),
    Op("sample", ("sample", "--m", "100", "--k", "50", "--theta", "0.7", "--n", "2000",
                  "--seed", "9", "--format", "json"),
       {"m": 100, "k": 50, "theta": 0.7, "n": 2000, "seed": 9, "format": "json"}),
    Op("block_csv", ("pmf", "--block", "--m", "20", "--k", "20", "--theta", "0.7"),
       {"m": 20, "k": 20, "theta": 0.7}),
]
# the incomplete-gamma kernel gives up at this shape (exit 2)
GAMMA_FAILURE = Op("pmf_gamma", ("pmf", "--m", "2000", "--k", "1000", "--theta", "0.5",
                                 "--method", "gamma"), {"m": 2000, "k": 1000, "theta": 0.5})


class WorkDir(unittest.TestCase):
    def setUp(self):
        run.OUT.mkdir(parents=True, exist_ok=True)
        self.work = Path(tempfile.mkdtemp(dir=run.OUT))
        self.addCleanup(shutil.rmtree, self.work, True)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_list(self):
        for name in workloads.WORKLOADS:
            self.assertEqual(workloads.ops_for(name, 7), workloads.ops_for(name, 7))

    def test_seeds_differ(self):
        for name in ("query", "bulk"):
            self.assertNotEqual(workloads.ops_for(name, 7), workloads.ops_for(name, 8))
        # the study grid is fixed by the paper
        self.assertEqual(workloads.ops_for("study", 7), workloads.ops_for("study", 8))

    def test_query_draws_follow_the_stated_ranges(self):
        ops = workloads.ops_for("query", 3)
        for op in ops:
            p = op.params
            self.assertTrue(0.5 <= p["theta"] <= 1.0)
            if p["m"] != float("inf"):
                self.assertTrue(1 <= p["k"] <= p["m"])
            if op.kind == "pmf_gamma":
                self.assertTrue(1001 <= p["m"] <= 100_000)


class CountsTest(WorkDir):
    def traced_pass(self):
        tracer = Tracer()
        tracer.install()
        try:
            p = run.run_pass(CLI, SMALL, self.work, tracer)
        finally:
            tracer.uninstall()
        return p, tracer.metrics()

    def test_counts_repeat_and_outputs_match_untraced(self):
        plain = run.run_pass(CLI, SMALL, self.work)
        first, a = self.traced_pass()
        second, b = self.traced_pass()
        self.assertEqual(plain.digest, first.digest)
        self.assertEqual(first.digest, second.digest)
        for name, value in a.items():
            if run.UNITS["per_layer"][name] not in run.TIME_UNITS:
                self.assertEqual(value, b[name], name)
        for name in ("exact.block_column_updates", "exact.vector_column_updates",
                     "numerics.gamma_points", "numerics.harmonic_terms",
                     "moments.mean_variance_calls", "sampler.uniforms"):
            self.assertGreater(a[name], 0, name)

    def test_tracer_restores_the_program(self):
        import negocc.accuracy
        import negocc.numerics

        before = negocc.accuracy.log_pmf_block, negocc.numerics.gamma_log_cdf_grid
        tracer = Tracer()
        tracer.install()
        self.assertIsNot(negocc.accuracy.log_pmf_block, before[0])
        tracer.uninstall()
        self.assertEqual((negocc.accuracy.log_pmf_block,
                          negocc.numerics.gamma_log_cdf_grid), before)

    def test_checks_accept_every_small_output(self):
        p = run.run_pass(CLI, SMALL, self.work)
        statuses, records = run.check_outputs(SMALL, self.work, p)
        self.assertEqual(statuses, [None] * len(SMALL))
        self.assertGreater(records, 0)


class CalibrationTest(WorkDir):
    def test_checkpoints_split_the_study_and_restore_the_program(self):
        import negocc.accuracy

        before = negocc.accuracy.log_pmf_block
        checkpoints = run.Checkpoints(run.CHECKPOINTS["study"])
        try:
            p = run.run_pass(CLI, SMALL[:1], self.work, checkpoints=checkpoints)
        finally:
            checkpoints.restore()
        self.assertIs(negocc.accuracy.log_pmf_block, before)
        # one exact block per m
        self.assertEqual(len(checkpoints.marks), 12)
        self.assertEqual(p.digest, run.run_pass(CLI, SMALL[:1], self.work).digest)
        self.assertGreater(p.scaled[0], 0.0)

    def test_scaled_time_is_raw_time_at_the_reference_speed(self):
        ref = run.REFERENCE_LOOP_S
        self.assertAlmostEqual(run.scaled(2.0, ref, ref), 2.0)
        self.assertAlmostEqual(run.scaled(2.0, 1.5 * ref, 2.5 * ref), 1.0)


class FailureTest(WorkDir):
    def test_failures_are_counted_without_aborting(self):
        good = SMALL[1]
        bad_theta = Op("pmf", ("pmf", "--m", "60", "--k", "25", "--theta", "1.5"),
                       {"m": 60, "k": 25, "theta": 1.5})
        wrong = Op("pmf", good.argv, {**good.params, "theta": 0.71})
        ops = [good, bad_theta, GAMMA_FAILURE, wrong, good]
        passes = [run.run_pass(CLI, ops, self.work) for _ in range(2)]
        statuses, _ = run.check_outputs(ops, self.work, passes[-1])
        attempted, failed, failures, consistent = run.tally(ops, passes, statuses)
        self.assertEqual((attempted, failed), (10, 6))
        self.assertTrue(consistent)
        classes = sorted(failures)
        self.assertTrue(classes[0].startswith("exit2: error: incomplete gamma"))
        self.assertTrue(classes[1].startswith("exit2: error: theta must satisfy"))
        self.assertTrue(classes[2].startswith("wrong: pmf:"))
        self.assertEqual(statuses[-1], None)

    def test_uncaught_exception_is_a_traceback_failure(self):
        class Crashing:
            @staticmethod
            def execute(argv):
                raise MemoryError("simulated")

        p = run.run_pass(Crashing, SMALL[:2], self.work)
        self.assertEqual(p.status, ["traceback: MemoryError"] * 2)
        self.assertEqual(len(p.latency), 2)


if __name__ == "__main__":
    unittest.main()
