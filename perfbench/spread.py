#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 10] [--seconds S]
                                [--trace 0|1] [--first-seed N]

For every workload and metric it prints the median and the interquartile
range as a share of the median (statistics.quantiles(values, n=4)), the
figure a run-to-run steadiness check compares against each metric's
bound in BENCHMARK.json. Runs are sequential; nothing else should load
the machine meanwhile.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(bench["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    kind = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in bench[kind]}
    worst = 0.0
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit(f"{workload} seed {seed} failed:\n{out.stderr}"
                         f"{out.stdout}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: incorrect output")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"== {workload} ({args.seeds} seeds)")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds[name]
            flag = ""
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
                flag = "  OVER BOUND" if spread > bound else (
                    "  over 1/3 bound" if spread > bound / 3 else "")
            print(f"  {name:24s} median {med:14.4f}  spread {spread:7.4f}"
                  f"  bound {bound}{flag}")
    if not args.trace:
        print(f"worst spread / bound: {worst:.3f}")


if __name__ == "__main__":
    main()
