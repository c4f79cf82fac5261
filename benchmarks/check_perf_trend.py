#!/usr/bin/env python
"""Perf-trend gate: compare pytest-benchmark results against a baseline.

ROADMAP item: CI uploads ``benchmark-results.json`` per run; this script
turns that artifact into a trend check — it fails (exit 1) when a
guarded benchmark's mean time regresses beyond ``threshold`` times its
committed baseline.

Usage::

    python benchmarks/check_perf_trend.py benchmark-results.json \
        [--baseline benchmarks/baseline.json] [--threshold 2.0] \
        [--update]

The baseline file maps benchmark names to ``{"mean": seconds}``.  Only
benchmarks present in the baseline are checked; a guarded benchmark
missing from the results (e.g. ``test_bench_engine_speedup_s4`` skips
without a C compiler) is reported and tolerated.  ``--update`` rewrites
the baseline from the results instead of checking — run it on the CI
hardware class the gate should calibrate to.

The wide default threshold (2x) absorbs runner-to-runner noise while
still catching the class of regression that matters: an accidental
deoptimisation of the vectorized engine hot path.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Benchmarks the gate guards by default (see ROADMAP.md).
GUARDED = (
    "test_bench_engine_speedup_s4",
    "test_bench_campaign_fused_sweep",
    "test_bench_model_solve",
    "test_bench_service_warm_query",
    "test_bench_service_surrogate_query",
    "test_bench_profiling_overhead_s4",
)


def load_means(results_path: Path) -> dict[str, float]:
    """Benchmark name -> mean seconds from a pytest-benchmark JSON file."""
    data = json.loads(results_path.read_text())
    return {b["name"]: float(b["stats"]["mean"]) for b in data.get("benchmarks", [])}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", type=Path, help="pytest-benchmark JSON output")
    parser.add_argument(
        "--baseline",
        type=Path,
        default=Path(__file__).with_name("baseline.json"),
        help="committed baseline file (default: benchmarks/baseline.json)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=2.0,
        help="fail when mean > threshold * baseline mean (default 2.0)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the baseline from the results instead of checking",
    )
    args = parser.parse_args(argv)

    means = load_means(args.results)

    if args.update:
        baseline = {
            name: {"mean": means[name]} for name in GUARDED if name in means
        }
        args.baseline.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
        print(f"baseline updated: {args.baseline} ({', '.join(baseline) or 'empty'})")
        return 0

    if not args.baseline.exists():
        print(f"perf-trend: no baseline at {args.baseline}; nothing to check")
        return 0
    baseline = json.loads(args.baseline.read_text())

    failed = False
    for name, entry in sorted(baseline.items()):
        base_mean = float(entry["mean"])
        mean = means.get(name)
        if mean is None:
            # Environment-dependent benchmarks may legitimately skip
            # (e.g. no C compiler for the compiled cycle kernel).
            print(f"perf-trend: {name}: not in results (skipped benchmark?) — tolerated")
            continue
        ratio = mean / base_mean
        verdict = "OK" if ratio <= args.threshold else "REGRESSION"
        print(
            f"perf-trend: {name}: mean {mean * 1e3:.1f} ms vs baseline "
            f"{base_mean * 1e3:.1f} ms ({ratio:.2f}x, limit {args.threshold:.1f}x) {verdict}"
        )
        if ratio > args.threshold:
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
