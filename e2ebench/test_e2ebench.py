"""Tests of the benchmark itself.

    python3 -m unittest discover -s e2ebench

Builds `ftb` like a benchmark run does (into $CARGO_TARGET_DIR, or
`.bench_build` at the checkout root).
"""

import json
import os
import shutil
import subprocess
import unittest

import run

# The jacobi-exhaustive flag set at a reduced size.
REDUCED = ["--kernel", "jacobi", "--grid", "8", "--sweeps", "24", "--tolerance", "1e-4"]
FAST_STACK = ["--bit-prune", "--snapshot", "--batch-lanes", "16"]


class ReferenceTests(unittest.TestCase):
    def test_references_cover_every_workload_and_pool_seed(self):
        refs = json.loads(run.REFERENCES.read_text())
        self.assertEqual(set(refs), set(run.WORKLOADS))
        for name, by_seed in refs.items():
            self.assertEqual(set(by_seed), {str(s) for s in run.POOL}, name)

    def test_jacobi_exhaustive_reference_at_seed_42(self):
        ref = json.loads(run.REFERENCES.read_text())["jacobi-exhaustive"]["42"]
        self.assertEqual((ref["masked"], ref["sdc"], ref["crash"]), (388_400, 132_963, 8_045))
        self.assertEqual(ref["sites"] * ref["bits"], 529_408)

    def test_per_layer_metric_names_match_benchmark_json(self):
        bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]}, run.per_layer_units())
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, run.END_TO_END)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))


class LaunchTests(unittest.TestCase):
    """`ftb-launch` places the creation of a file between spawn and exit."""

    def test_created_s_falls_between_spawn_and_exit(self):
        launch = run.build()["launch"]
        work = run.ROOT / ".bench_run" / f"test-launch-{os.getpid()}"
        work.mkdir(parents=True, exist_ok=True)
        try:
            marker, report = work / "marker", work / "launch.json"
            script = f"sleep 0.2; : > {marker}; sleep 0.2"
            subprocess.run([str(launch), "--created", str(marker), str(report), "sh", "-c", script],
                           check=True)
            launched = json.loads(report.read_text())
            self.assertEqual(launched["status"], 0)
            self.assertGreater(launched["created_s"], 0.2)
            self.assertLess(launched["created_s"], launched["answer_s"] - 0.2)
        finally:
            shutil.rmtree(work, ignore_errors=True)


class OracleTests(unittest.TestCase):
    """The fast stack the jacobi-exhaustive workload runs (certified-bit
    pruning, snapshot resume, 16-lane batches, 2 workers) gives the same
    outcome table as the plain single-threaded, unpruned, from-scratch
    campaign."""

    @classmethod
    def setUpClass(cls):
        cls.ftb = run.build()["ftb"]

    def table(self, flags, threads):
        work = run.ROOT / ".bench_run" / f"test-{os.getpid()}"
        work.mkdir(parents=True, exist_ok=True)
        out = work / "answer.json"
        try:
            env = dict(os.environ, RAYON_NUM_THREADS=str(threads))
            argv = [str(self.ftb), "exhaustive", *flags, "--json", str(out),
                    "--checkpoint", str(work / "ledger.jsonl")]
            subprocess.run(argv, check=True, env=env, capture_output=True)
            return run.answer_key("table", out)
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def test_fast_stack_matches_scalar_oracle_at_reduced_size(self):
        for seed in run.POOL[:3]:
            seeded = REDUCED + ["--seed", str(seed)]
            oracle = self.table(seeded, threads=1)
            fast = self.table(seeded + FAST_STACK, threads=2)
            self.assertEqual(fast, oracle, f"seed {seed}")
            self.assertGreater(oracle["sdc"], 0)


if __name__ == "__main__":
    unittest.main()
