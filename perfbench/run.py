#!/usr/bin/env python3
"""Build and run the hypercast end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a hypercast checkout. The first call configures and
builds perfbench/ (the hypercast libraries from src/ plus the perfbench
program, Release) under .bench_build/perfbench; later calls only rebuild
what changed. Build output goes to stderr, so the benchmark's standard
output ends with its one-line JSON result. Traced runs (--trace 1) write
their span log, and every run its full result document (provenance,
metric table, result line), under .bench_build/perfbench/.

Extra flags are passed to the benchmark program unchanged (e.g. --digest).
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if os.path.isabs(base):
        base = ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out_dir):
    """Configure (once) and build the program; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no hypercast sources (src/CMakeLists.txt) "
                 "next to perfbench/; run from a full checkout")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", out_dir,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", out_dir, "-j", jobs],
                       check=True, stdout=sys.stderr)
    return os.path.join(out_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = parser.parse_known_args()

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    for sub in ("results", "traces"):
        os.makedirs(os.path.join(out_dir, sub), exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--result-out", os.path.join(out_dir, "results", tag + ".json")]
    if args.trace:
        # One span log per workload: a later traced run replaces it.
        cmd += ["--trace-out",
                os.path.join(out_dir, "traces", args.workload + ".jsonl")]
    sys.stdout.flush()
    return subprocess.run(cmd + extra, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
