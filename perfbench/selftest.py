"""Self-tests of the benchmark itself (not of gaborcert).

    python3 perfbench/selftest.py

Each workload runs at a tiny size (the first jobs of its cycle, in-process)
and must pass its reference checks with the traced and untraced output
digests equal; a known-defect job may fail only its own check.  The verdict
rules must fire on synthetic verdicts: a false Certified, a Gaussian
Certified at ab = 1, and a lost profile row on an input whose reference has
none.  run.py is run end to end on the cheapest workload in both
modes, and its emitted metric names and units must match BENCHMARK.json.
A different seed must change the inputs but not the metric set.  In a
directory holding only BENCHMARK.json and perfbench/, run.py must fail
without printing a result.  Takes about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {"analytic-sweep": 3, "reduced-lattice": 1, "oracle-evidence": 3, "barrier-pointwise": 4}


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


class TinyWorkloads(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        cls.ref = wl.load_reference()
        cls.work = worker.WORK_ROOT / f"selftest-{os.getpid()}"
        cls.work.mkdir(parents=True)
        os.chdir(cls.work)  # jobs write files by bare name

    @classmethod
    def tearDownClass(cls) -> None:
        os.chdir(ROOT)
        shutil.rmtree(cls.work, ignore_errors=True)
        try:
            worker.WORK_ROOT.rmdir()
        except OSError:
            pass  # a benchmark run is using it

    def test_each_workload_checks_out_and_traces_to_the_same_bytes(self) -> None:
        for name, size in TINY.items():
            with self.subTest(workload=name):
                jobs = wl.make_jobs(name, 7, self.ref)[:size]
                plain = worker.run_pass(jobs, None, 1)
                self.assertEqual(plain["failures"], [])
                checked = worker.check_outputs(jobs, plain)
                self.assertEqual(checked["problems"], {})
                expected = {j.label for j in jobs if j.known_defect}
                self.assertLessEqual(set(checked["known_defect_failures"]), expected)
                self.assertEqual(checked["correct"], size - len(checked["known_defect_failures"]))
                tracer = tracing.Tracer()
                tracer.install()
                try:
                    traced = worker.run_pass(jobs, None, 1, tracer)
                finally:
                    tracer.uninstall()
                self.assertEqual(worker.digest(traced["outputs"]), worker.digest(plain["outputs"]))
                self.assertTrue(tracer.spans)
                layers = tracer.layer_metrics(traced["warnings"], traced["output_bytes"])
                self.assertEqual(set(layers) | {"trace.overhead_share"}, {m["name"] for m in BENCH["per_layer"]})

    def test_verdict_rules_fire(self) -> None:
        jobs = wl.make_jobs("analytic-sweep", 1, self.ref)
        (gap,) = [j for j in jobs if j.known_defect]
        target, ref_min = gap.certify
        verdict = {"status": "Certified", "delta": target, "margin": 0.009, "min_delta_g": target + 0.009}
        self.assertTrue(any("above reference minimum" in p for p in gap.check(json.dumps(verdict))))
        (critical,) = [j for j in jobs if j.label == "certify gaussian b=1.0 delta=1.0 (fixed)"]
        verdict = {"status": "Certified", "delta": 1.0, "margin": 0.001, "min_delta_g": 1.001}
        self.assertTrue(any("ab >= 1" in p for p in critical.check(json.dumps(verdict))))
        lost_row = {"status": "Inconclusive", "delta": 0.3, "margin": 0.2, "min_delta_g": 0.5}
        by_pair = {(e["window"], e["b"]): e for e in self.ref["analytic"]}
        degenerate = wl._certify_check(0.3, by_pair[("hermite:3", 20.0)])
        self.assertEqual(degenerate(json.dumps(lost_row)), [])
        sound = wl._certify_check(0.3, by_pair[("hermite:1", 8.49781)])
        self.assertTrue(any("positive margin" in p for p in sound(json.dumps(lost_row))))

    def test_seed_changes_inputs_not_shape(self) -> None:
        for name in wl.WORKLOADS:
            with self.subTest(workload=name):
                a = wl.make_jobs(name, 1, self.ref)
                b = wl.make_jobs(name, 2, self.ref)
                self.assertNotEqual([j.label for j in a], [j.label for j in b])
                self.assertEqual(len(a), len(b))
                self.assertEqual([j.label for j in a], [j.label for j in wl.make_jobs(name, 1, self.ref)])

    def test_uninstall_restores_the_package(self) -> None:
        import gaborcert.barrier
        import gaborcert.criterion

        before = (gaborcert.criterion.delta_g, gaborcert.barrier.delta_g, gaborcert.barrier.one_sided_gauss_tail_log)
        tracer = tracing.Tracer()
        tracer.install()
        self.assertIsNot(gaborcert.barrier.delta_g, before[1])
        tracer.uninstall()
        self.assertEqual(before, (gaborcert.criterion.delta_g, gaborcert.barrier.delta_g,
                                  gaborcert.barrier.one_sided_gauss_tail_log))


class EndToEnd(unittest.TestCase):
    def _result(self, seed: int, trace: int) -> dict:
        done = run_bench("--workload", "barrier-pointwise", "--seed", str(seed), "--seconds", "1", "--trace", str(trace))
        self.assertEqual(done.returncode, 0, done.stderr)
        return json.loads(done.stdout.strip().splitlines()[-1])

    def test_metric_names_and_units_match_benchmark_json(self) -> None:
        plain = self._result(3, 0)
        self.assertTrue(plain["correct"])
        self.assertEqual(set(plain), {"correct", "attempted", "failed", "metrics"})
        expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
        self.assertEqual({k: v["unit"] for k, v in plain["metrics"].items()}, expected)
        traced = self._result(3, 1)
        self.assertTrue(traced["correct"])  # includes traced digest == untraced digest
        expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
        self.assertEqual({k: v["unit"] for k, v in traced["metrics"].items()}, expected)
        other = self._result(4, 0)
        self.assertEqual(set(other["metrics"]), set(plain["metrics"]))

    def test_fails_without_the_package_sources(self) -> None:
        bare = HERE / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "_work", "__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
            done = run_bench("--workload", "analytic-sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"metrics"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
