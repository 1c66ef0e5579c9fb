#!/usr/bin/env python3
"""Bench regression gate for hypercast-bench-v1 artifacts.

Compares two kinds of metric in freshly produced BENCH_*.json files
against the committed baselines under results/:

* rates, higher is better: any key containing "per_sec" or "per_s"
  (builds_per_sec, events_per_s, sorts_per_sec, ...);
* latencies, lower is better: keys ending in "ns_per_event" or
  "_p99_us" (the simulator's cost per event, the serving SLO's p99).

Other keys are not compared. The gate fails when a metric gets worse by
more than --threshold (default 30%): a rate below (1 - threshold) times
its baseline, or a latency above its baseline divided by
(1 - threshold), so both kinds fail at the same slowdown.

Benchmarks or individual metrics present on only one side are reported
but never fail the gate: baselines are refreshed deliberately, and quick
CI runs may skip heavyweight benchmarks.

Usage:
  tools/check_bench_regression.py --fresh-dir bench-artifacts \
      [--baseline-dir results] [--threshold 0.30] [--only SUBSTR] [--exact]

--exact gates what a benchmark computes instead of how fast: every
non-timing metric (step counts, simulated delays, event counts, ...)
and every series point must equal the baseline's, and a benchmark's
non-timing metric present on only one side is a difference too. Timing
metrics are ignored: the rates and latencies above, and keys ending in
"speedup", which are ratios of two measured rates ("hot_repeated
speedup", "wsort/224 cached_speedup"). A ratio of simulated figures
names what it compares after the word ("striped_speedup_6cube_1MiB")
and stays exact. The build type check below is skipped too. For deterministic benchmarks (the paper figures run a
seeded, integer-time simulation) any difference is a change in results.

Rates from different build types are not comparable (a RelWithDebInfo
coder runs several times slower than a Release one), so the gate
refuses (exit 2) when a benchmark's fresh and baseline artifacts both
record machine.build_type and the two differ. When only one side
records it, the comparison goes ahead with a warning.

--only restricts the comparison to benchmark names containing SUBSTR
(applied to both sides; used by CI to gate cached-mode "_cached"
artifacts against their own baselines only). A SUBSTR that matches no
fresh artifact or no committed baseline is an error (exit 2), not a
silent pass -- a renamed benchmark must not leave a green gate
comparing nothing. The threshold can also be set via the
BENCH_REGRESSION_THRESHOLD environment variable (the flag wins). Exit
status: 0 pass, 1 regression (or, with --exact, any difference),
2 usage/IO/malformed-artifact error.
"""

import argparse
import json
import os
import sys
from pathlib import Path

RATE_MARKERS = ("per_sec", "per_s")
LATENCY_SUFFIXES = ("ns_per_event", "_p99_us")
TIMING_RATIO_SUFFIX = "speedup"


def metric_direction(key: str):
    """"lower" for latency keys, "higher" for rate keys, None for keys
    the gate does not compare."""
    if key.endswith(LATENCY_SUFFIXES):
        return "lower"
    if any(marker in key for marker in RATE_MARKERS):
        return "higher"
    return None


def is_timing(key: str) -> bool:
    """Whether --exact ignores `key`: a gated rate or latency, or a
    ratio of two measured rates."""
    return bool(metric_direction(key)) or key.endswith(TIMING_RATIO_SUFFIX)


def load_artifacts(directory: Path):
    """Map benchmark name -> {metric: value} for the gated metrics only,
    benchmark name -> recorded machine.build_type (None when absent),
    and benchmark name -> the whole artifact."""
    out = {}
    build_types = {}
    docs = {}
    for path in sorted(directory.glob("BENCH_*.json")):
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as err:
            print(f"error: cannot parse {path}: {err}", file=sys.stderr)
            sys.exit(2)
        if not isinstance(doc, dict):
            print(f"error: {path} is not a JSON object "
                  f"(got {type(doc).__name__})", file=sys.stderr)
            sys.exit(2)
        if doc.get("schema") != "hypercast-bench-v1":
            print(f"note: skipping {path.name} (schema {doc.get('schema')!r})")
            continue
        metrics = doc.get("metrics", {})
        if not isinstance(metrics, dict):
            print(f"error: {path}: \"metrics\" is not an object "
                  f"(got {type(metrics).__name__})", file=sys.stderr)
            sys.exit(2)
        gated = {
            key: value
            for key, value in metrics.items()
            if metric_direction(key) and isinstance(value, (int, float))
        }
        name = doc.get("name", path.stem)
        out[name] = gated
        docs[name] = doc
        machine = doc.get("machine")
        build_type = (machine.get("build_type")
                      if isinstance(machine, dict) else None)
        build_types[name] = build_type if build_type else None
    return out, build_types, docs


def exact_differences(name, fresh_doc, base_doc):
    """Messages for every non-timing metric or series point of `name`
    that differs between the two artifacts (empty when they agree)."""
    diffs = []
    fresh_metrics = fresh_doc.get("metrics", {})
    base_metrics = base_doc.get("metrics", {})
    for key in sorted(fresh_metrics.keys() | base_metrics.keys()):
        if is_timing(key):
            continue
        fresh_value = fresh_metrics.get(key, "<missing>")
        base_value = base_metrics.get(key, "<missing>")
        if fresh_value != base_value:
            diffs.append(f"{name}: metric {key!r}  {base_value} -> "
                         f"{fresh_value}")
    fresh_series = fresh_doc.get("series", [])
    base_series = base_doc.get("series", [])
    if len(fresh_series) != len(base_series):
        diffs.append(f"{name}: {len(base_series)} series -> "
                     f"{len(fresh_series)}")
    for fresh_s, base_s in zip(fresh_series, base_series):
        title = base_s.get("title", "?")
        fresh_curves = {c.get("name"): c for c in fresh_s.get("curves", [])}
        base_curves = {c.get("name"): c for c in base_s.get("curves", [])}
        for curve in sorted(fresh_curves.keys() | base_curves.keys()):
            fresh_points = fresh_curves.get(curve, {}).get("points")
            base_points = base_curves.get(curve, {}).get("points")
            if fresh_points == base_points:
                continue
            if fresh_points is None or base_points is None:
                side = "fresh" if fresh_points is None else "baseline"
                diffs.append(f"{name}: {title!r} curve {curve!r} missing "
                             f"from the {side} artifact")
                continue
            changed = [base.get("x") for base, fresh
                       in zip(base_points, fresh_points) if base != fresh]
            if len(fresh_points) != len(base_points):
                changed.append(f"{len(base_points)} -> "
                               f"{len(fresh_points)} points")
            diffs.append(f"{name}: {title!r} curve {curve!r} differs at "
                         f"x = {changed}")
        rest_fresh = {k: v for k, v in fresh_s.items() if k != "curves"}
        rest_base = {k: v for k, v in base_s.items() if k != "curves"}
        if rest_fresh != rest_base:
            diffs.append(f"{name}: {title!r} series labels differ")
    return diffs


def exact_gate(fresh_docs, base_docs) -> int:
    """The --exact comparison over benchmarks on both sides."""
    diffs = []
    compared = 0
    for name in sorted(fresh_docs.keys() & base_docs.keys()):
        compared += 1
        found = exact_differences(name, fresh_docs[name], base_docs[name])
        print(f"{'DIFFERS' if found else 'exact':>10}  {name}")
        diffs.extend(found)
    for name in sorted(fresh_docs.keys() - base_docs.keys()):
        print(f"note: {name}: no committed baseline, skipping")
    print(f"\ncompared {compared} benchmark(s) exactly")
    if diffs:
        print(f"FAIL: {len(diffs)} difference(s):")
        for diff in diffs:
            print(f"  {diff}")
        return 1
    print("PASS: every non-timing metric and series point matches")
    return 0


def build_type_mismatches(fresh_types, base_types, names):
    """Names whose two sides record different build types; warns for
    names where only one side records one."""
    mismatches = []
    for name in sorted(names):
        fresh_type, base_type = fresh_types.get(name), base_types.get(name)
        if fresh_type and base_type:
            if fresh_type != base_type:
                mismatches.append((name, base_type, fresh_type))
        elif fresh_type or base_type:
            side = "fresh" if fresh_type else "baseline"
            print(f"warning: {name}: only the {side} artifact records a "
                  f"build type ({fresh_type or base_type}); comparing anyway")
    return mismatches


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fresh-dir", required=True, type=Path,
                        help="directory with just-produced BENCH_*.json")
    parser.add_argument("--baseline-dir", type=Path, default=Path("results"),
                        help="directory with committed baselines "
                             "(default: results)")
    parser.add_argument("--threshold", type=float,
                        default=float(os.environ.get(
                            "BENCH_REGRESSION_THRESHOLD", "0.30")),
                        help="max tolerated slowdown, e.g. 0.30 "
                             "(default: 0.30 or $BENCH_REGRESSION_THRESHOLD)")
    parser.add_argument("--only", default="",
                        help="restrict to benchmark names containing this "
                             "substring (applied to fresh and baseline)")
    parser.add_argument("--exact", action="store_true",
                        help="fail on any difference in non-timing metrics "
                             "or series points; ignore timing")
    args = parser.parse_args()

    if not (0.0 < args.threshold < 1.0):
        print(f"error: threshold {args.threshold} not in (0, 1)",
              file=sys.stderr)
        return 2
    for directory in (args.fresh_dir, args.baseline_dir):
        if not directory.is_dir():
            print(f"error: {directory} is not a directory", file=sys.stderr)
            return 2

    fresh, fresh_types, fresh_docs = load_artifacts(args.fresh_dir)
    baseline, base_types, base_docs = load_artifacts(args.baseline_dir)
    if args.only:
        fresh = {k: v for k, v in fresh.items() if args.only in k}
        baseline = {k: v for k, v in baseline.items() if args.only in k}
    if args.exact:
        fresh = {k: v for k, v in fresh_docs.items() if k in fresh}
        baseline = {k: v for k, v in base_docs.items() if k in baseline}
    if not fresh:
        what = (f"artifacts matching {args.only!r}" if args.only
                else "BENCH_*.json artifacts")
        print(f"error: no {what} in {args.fresh_dir}", file=sys.stderr)
        return 2
    if args.only and not baseline:
        print(f"error: no baselines matching {args.only!r} in "
              f"{args.baseline_dir} -- an --only gate that compares "
              f"nothing would pass vacuously", file=sys.stderr)
        return 2

    for name in sorted(baseline.keys() - fresh.keys()):
        print(f"note: {name}: baseline present but missing from fresh run")

    if args.exact:
        # No rate is compared, so the build types need not match.
        return exact_gate(fresh, baseline)
    mismatches = build_type_mismatches(fresh_types, base_types,
                                       fresh.keys() & baseline.keys())
    if mismatches:
        for name, base_type, fresh_type in mismatches:
            print(f"error: {name}: baseline built {base_type}, fresh built "
                  f"{fresh_type}; rates across build types are not "
                  f"comparable", file=sys.stderr)
        return 2
    regressions = []
    compared = 0
    for name, fresh_metrics in sorted(fresh.items()):
        base_metrics = baseline.get(name)
        if base_metrics is None:
            print(f"note: {name}: no committed baseline, skipping")
            continue
        for key, fresh_value in sorted(fresh_metrics.items()):
            base_value = base_metrics.get(key)
            if base_value is None:
                print(f"note: {name}: metric {key!r} not in baseline")
                continue
            if base_value <= 0:
                continue
            compared += 1
            # How much faster the fresh run is (< 1: slower), either way
            # round: a rate's fresh/base, a latency's base/fresh.
            if metric_direction(key) == "higher":
                ratio = fresh_value / base_value
            else:
                ratio = (base_value / fresh_value if fresh_value > 0
                         else float("inf"))
            status = "ok"
            if ratio < 1.0 - args.threshold:
                status = "REGRESSION"
                regressions.append((name, key, base_value, fresh_value, ratio))
            print(f"{status:>10}  {name}: {key}  "
                  f"{base_value:.4g} -> {fresh_value:.4g}  ({ratio:.2f}x)")

    print(f"\ncompared {compared} metrics, "
          f"threshold {args.threshold:.0%} slowdown")
    if regressions:
        print(f"FAIL: {len(regressions)} metric(s) regressed:")
        for name, key, base_value, fresh_value, ratio in regressions:
            print(f"  {name}: {key}  {base_value:.4g} -> {fresh_value:.4g}  "
                  f"({(1 - ratio):.0%} slower)")
        return 1
    print("PASS: no metric regressed beyond threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
