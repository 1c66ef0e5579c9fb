#!/usr/bin/env python3
"""Tests for tools/check_bench_regression.py: its build-type provenance
rule and which metric keys it gates in which direction.

Run directly (python3 tests/test_check_bench_regression.py) or through
ctest, which registers it as check_bench_regression_build_types.
"""

import importlib.util
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

SCRIPT = (Path(__file__).resolve().parent.parent / "tools" /
          "check_bench_regression.py")


def load_gate():
    spec = importlib.util.spec_from_file_location("check_bench_regression",
                                                  SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def artifact(rate, build_type=None, metrics=None):
    machine = {"os": "linux"}
    if build_type is not None:
        machine["build_type"] = build_type
    return {"schema": "hypercast-bench-v1", "name": "micro_demo",
            "kind": "micro",
            "metrics": metrics if metrics is not None
            else {"ops_per_sec": rate},
            "series": [], "machine": machine}


class GateRun(unittest.TestCase):
    """Runs the gate script on one fresh and one baseline artifact."""

    def run_gate(self, fresh, baseline):
        with tempfile.TemporaryDirectory() as tmp:
            dirs = {}
            for side, doc in (("fresh", fresh), ("baseline", baseline)):
                dirs[side] = Path(tmp) / side
                dirs[side].mkdir()
                (dirs[side] / "BENCH_micro_demo.json").write_text(
                    json.dumps(doc))
            return subprocess.run(
                [sys.executable, str(SCRIPT), "--fresh-dir",
                 str(dirs["fresh"]), "--baseline-dir", str(dirs["baseline"])],
                capture_output=True, text=True)


class BuildTypeProvenance(GateRun):
    def test_refuses_different_build_types(self):
        # Equal rates: only the provenance rule can fail this comparison.
        done = self.run_gate(artifact(100.0, "RelWithDebInfo"),
                             artifact(100.0, "Release"))
        self.assertEqual(done.returncode, 2, done.stdout + done.stderr)
        self.assertIn("not comparable", done.stderr)

    def test_same_build_type_compares(self):
        done = self.run_gate(artifact(100.0, "Release"),
                             artifact(100.0, "Release"))
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
        self.assertNotIn("warning", done.stdout)

    def test_one_sided_build_type_warns_and_compares(self):
        done = self.run_gate(artifact(100.0, "Release"), artifact(100.0))
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
        self.assertIn("only the fresh artifact records a build type",
                      done.stdout)

    def test_regression_still_fails_within_one_build_type(self):
        done = self.run_gate(artifact(10.0, "Release"),
                             artifact(100.0, "Release"))
        self.assertEqual(done.returncode, 1, done.stdout + done.stderr)


class KeyClassification(unittest.TestCase):
    def test_directions(self):
        direction = load_gate().metric_direction
        for key in ("builds_per_sec", "events_per_s", "des_mix events_per_sec",
                    "cosched_warm_plans_per_sec"):
            self.assertEqual(direction(key), "higher", key)
        for key in ("ns_per_event", "sim.ns_per_event", "latency_p99_us",
                    "open_loop_p99_us"):
            self.assertEqual(direction(key), "lower", key)
        for key in ("channels_used", "max_load", "latency_p50_us",
                    "p99_us_budget", "events"):
            self.assertIsNone(direction(key), key)


class LatencyGate(GateRun):
    def latency(self, p99_us):
        return artifact(0, "Release", {"latency_p99_us": p99_us})

    def test_latency_rise_beyond_threshold_fails(self):
        # 100 -> 150 us is a 33% slowdown, past the default 30%.
        done = self.run_gate(self.latency(150.0), self.latency(100.0))
        self.assertEqual(done.returncode, 1, done.stdout + done.stderr)
        self.assertIn("latency_p99_us", done.stdout)

    def test_latency_within_threshold_and_falls_pass(self):
        for fresh in (140.0, 60.0):
            done = self.run_gate(self.latency(fresh), self.latency(100.0))
            self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
            self.assertIn("compared 1 metrics", done.stdout)


if __name__ == "__main__":
    unittest.main()
