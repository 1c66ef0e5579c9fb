#!/usr/bin/env python3
"""Tests for tools/check_bench_regression.py's build-type provenance rule.

Run directly (python3 tests/test_check_bench_regression.py) or through
ctest, which registers it as check_bench_regression_build_types.
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

SCRIPT = (Path(__file__).resolve().parent.parent / "tools" /
          "check_bench_regression.py")


def artifact(rate, build_type=None):
    machine = {"os": "linux"}
    if build_type is not None:
        machine["build_type"] = build_type
    return {"schema": "hypercast-bench-v1", "name": "micro_demo",
            "kind": "micro", "metrics": {"ops_per_sec": rate},
            "series": [], "machine": machine}


class BuildTypeProvenance(unittest.TestCase):
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


if __name__ == "__main__":
    unittest.main()
