"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench/tests -v

Run from the root of a hypercast checkout. The first test builds the
benchmark program through run.py (about a minute on four cores).
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERFBENCH)
RUN = [sys.executable, os.path.join(PERFBENCH, "run.py")]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload, seed, *extra, seconds=1, trace=0, cwd=ROOT):
    return subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=900)


def last_json(out):
    return json.loads(out.stdout.strip().splitlines()[-1])


class Determinism(unittest.TestCase):
    """Inputs and virtual times are a pure function of the seed."""

    def digest(self, workload, seed):
        out = run(workload, seed, "--digest")
        self.assertEqual(out.returncode, 0, out.stderr)
        return last_json(out)

    def test_same_seed_same_inputs_and_virtual_times(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = self.digest(workload, 7)
                self.assertTrue(first["correct"])
                self.assertEqual(first, self.digest(workload, 7))

    def test_different_seed_different_inputs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assertNotEqual(self.digest(workload, 7)["inputs"],
                                    self.digest(workload, 8)["inputs"])


class Contract(unittest.TestCase):
    """The result line every run ends with."""

    def check_line(self, workload, trace):
        out = run(workload, 3, trace=trace)
        self.assertEqual(out.returncode, 0, out.stderr + out.stdout)
        line = last_json(out)
        self.assertEqual(set(line),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(line["correct"])
        self.assertGreaterEqual(line["attempted"], 1)
        self.assertEqual(line["failed"], 0)
        kind = "per_layer" if trace else "end_to_end"
        want = {m["name"]: m["unit"] for m in BENCH[kind]}
        self.assertEqual(set(line["metrics"]), set(want))
        for name, m in line["metrics"].items():
            self.assertEqual(set(m), {"value", "unit"})
            self.assertEqual(m["unit"], want[name])
            self.assertIsInstance(m["value"], (int, float))
            if not trace:
                self.assertGreater(m["value"], 0, name)
        return line["metrics"]

    def test_result_lines(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check_line(workload, trace)

    def test_serve_hot_stage_table_sums_to_p50(self):
        m = {k: v["value"] for k, v in self.check_line("serve_hot", 1).items()}
        stages_us = (m["net.decode_ns"] + m["coll.serve_ns"] +
                     m["net.encode_ns"]) / 1e3
        self.assertAlmostEqual(stages_us + m["net.unattributed_us"],
                               m["net.e2e_p50_us"], places=6)
        self.assertGreater(m["coll.hit_ratio"], 0.9)

    def test_layer_targets_cover_per_layer(self):
        with open(os.path.join(PERFBENCH, "layers.json")) as f:
            layers = json.load(f)["metrics"]
        self.assertEqual(set(layers), {m["name"] for m in BENCH["per_layer"]})

    def test_refuses_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "sourceless")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(PERFBENCH, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"correct"', out.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
