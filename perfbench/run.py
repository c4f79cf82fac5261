"""Run one benchmark workload and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload kernel-s5 --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up time (the median
of several fresh processes), then repeated runs of the workflow for
``--seconds`` seconds.  ``--trace 1`` is the separate traced run: one
untraced reference run, then traced runs whose spans give the per-layer
metrics, the self-time table and the tracing overhead.  Either way every
output is checked, a human-readable report precedes the last line, and
the last line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A failed check fails the run (exit 1).  The compiled kernel is built
into ``.bench_build/`` on first use; reports and Chrome traces are
written to ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

#: Each of these makes the program run a different code path or
#: executor than the one the benchmark measures.
REFUSED_ENV = ("STARNET_NO_CKERNEL", "STARNET_NO_RESIDENT", "STARNET_THREADS", "STARNET_CACHE_DIR")

#: Fresh processes whose set-up time is measured per run.
SETUP_REPEATS = 5

#: End-to-end metric units, in report order.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "rep_cycles_per_s": "1/s",
    "sim_cycles_per_point": "count",
    "peak_rss_mb": "MB",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "cold_p50_ms": "ms",
    "refine_s": "s",
    "queries_per_s": "1/s",
    "ok_frac": "ratio",
}

for _path in (str(SRC), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench.layers import LAYER_METRICS  # noqa: E402
from perfbench.workloads import WORKLOADS, Outcome  # noqa: E402


def _percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def end_to_end_metrics(
    outcomes: list[Outcome], setup_s: list[float], attempted: int, failed: int
) -> dict[str, float]:
    """The end-to-end metrics of one measured run (see ``perfbench/README.md``)."""
    total_wall = sum(o.wall_s for o in outcomes)
    rep_cycles = sum(p.rep_cycles for o in outcomes for p in o.points)
    sim_points = sum(o.sim_points for o in outcomes)
    query_ms = [q for o in outcomes for q in o.query_ms]
    return {
        "wall_s": statistics.median(o.wall_s for o in outcomes),
        "setup_s": statistics.median(setup_s),
        "rep_cycles_per_s": rep_cycles / total_wall,
        "sim_cycles_per_point": rep_cycles / sim_points if sim_points else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "query_p50_ms": _percentile(query_ms, 50),
        "query_p99_ms": _percentile(query_ms, 99),
        "cold_p50_ms": _percentile(outcomes[-1].cold_ms, 50),
        "refine_s": statistics.median(o.refine_s for o in outcomes),
        "queries_per_s": sum(o.answered for o in outcomes) / total_wall,
        "ok_frac": 1.0 - failed / attempted,
    }


def fingerprint(outcome: Outcome) -> list[list]:
    return [p.fingerprint() for p in outcome.points]


def run_checks(workload, outcomes: list[Outcome]) -> list[tuple[str, bool]]:
    """Every output check of every run, plus exact repeatability.

    In a traced run the first outcome is the untraced reference, so the
    repeatability check also proves tracing changed no simulated bit.
    """
    checks = []
    for i, outcome in enumerate(outcomes):
        checks += [(f"run {i}: {name}", ok) for name, ok in workload.check(outcome)]
    if workload.repeats_exactly:
        first = fingerprint(outcomes[0])
        for i, outcome in enumerate(outcomes[1:], 1):
            checks.append((f"run {i} simulates exactly what run 0 did", fingerprint(outcome) == first))
    return checks


def environment(kernel_loaded: bool) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "compiled_kernel": kernel_loaded,
    }


def measure_setup(args) -> float:
    """Set-up seconds of one fresh process (imports included)."""
    proc = subprocess.run(
        [
            sys.executable,
            str(Path(__file__)),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--setup-child", str(args.workdir / f"setup-{time.monotonic_ns()}"),
        ],
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def setup_child(args) -> int:
    workload = WORKLOADS[args.workload]
    workdir = Path(args.setup_child)
    t0 = time.perf_counter()
    workload.setup(args.seed, workload.size, workdir)
    elapsed = time.perf_counter() - t0
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": elapsed}))
    return 0


def run_once(workload, ctx, seed: int) -> Outcome:
    """One workflow run from a collected heap.

    The program leaves reference cycles behind (simulators hold ctypes
    callbacks), so without a collection between runs each run would
    start from a different heap and pay for its predecessor's garbage.
    """
    gc.collect()
    return workload.run(ctx, seed, workload.size)


def measured(args, workload) -> tuple[list[Outcome], list[float]]:
    """Set-up times of fresh processes, then runs for ``args.seconds``."""
    setup_s = [measure_setup(args) for _ in range(SETUP_REPEATS)]
    ctx = workload.setup(args.seed, workload.size, args.workdir)
    outcomes: list[Outcome] = []
    deadline = time.perf_counter() + args.seconds
    while not outcomes or time.perf_counter() < deadline:
        outcomes.append(run_once(workload, ctx, args.seed))
    print(f"set-up: {', '.join(f'{s:.3f}' for s in setup_s)} s; runs: "
          + ", ".join(f"{o.wall_s:.3f}" for o in outcomes) + " s")
    return outcomes, setup_s


def traced(args, workload) -> tuple[list[Outcome], dict, dict]:
    """Traced set-up, one untraced reference run, then traced runs.

    Returns every run (the reference first), the per-layer metrics and
    report extras; prints the overhead and the self-time table.
    """
    from perfbench.layers import LayerProbe

    probe = LayerProbe()
    probe.install()
    tracer = probe.tracer
    try:
        tracer.enabled = True
        lo = time.perf_counter_ns()
        ctx = workload.setup(args.seed, workload.size, args.workdir)
        setup = (lo, time.perf_counter_ns())
        tracer.enabled = False
        deadline = time.perf_counter() + args.seconds
        reference = run_once(workload, ctx, args.seed)
        outcomes: list[Outcome] = []
        while not outcomes or time.perf_counter() < deadline:
            gc.collect()
            tracer.enabled = True
            outcomes.append(workload.run(ctx, args.seed, workload.size))
            tracer.enabled = False
    finally:
        probe.uninstall()
    windows = [o.window for o in outcomes]
    layers = probe.metrics(setup, outcomes)
    traced_wall = statistics.median(o.wall_s for o in outcomes)
    overhead = traced_wall - reference.wall_s
    print(f"tracing overhead: traced wall_s {traced_wall:.3f} - untraced {reference.wall_s:.3f}"
          f" = {overhead:+.3f} s ({100 * overhead / reference.wall_s:+.1f}%)")
    print(f"{'layer':<34} {'calls':>7} {'self_s':>9} {'share':>7}")
    for name, calls, self_s, share in probe.self_time_table(windows):
        print(f"{name:<34} {calls:>7} {self_s:>9.3f} {100 * share:>6.1f}%")
    print(f"{'unattributed':<34} {'':>7} {'':>9} {100 * layers['unattributed.share']:>6.1f}%")
    trace_path = OUT / f"{args.workload}-seed{args.seed}.trace.json"
    tracer.write_chrome_trace(trace_path)
    print(f"chrome trace: {trace_path.relative_to(ROOT)}")
    extra = {"tracing_overhead_s": overhead, "untraced_wall_s": reference.wall_s}
    return [reference, *outcomes], layers, extra


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_child:
        return setup_child(args)

    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    refused = [name for name in REFUSED_ENV if os.environ.get(name)]
    if refused:
        print(
            f"perfbench: REFUSING TO RUN: {', '.join(refused)} set; each selects a "
            "different program than the one this benchmark measures",
            file=sys.stderr,
        )
        return 2
    os.environ["STARNET_CKERNEL_DIR"] = str(OUT / "ckernel")
    from repro.simulation.ckernel import load_bundle

    env = environment(load_bundle() is not None)
    print("environment: " + json.dumps(env))
    if not env["compiled_kernel"]:
        print(
            "perfbench: REFUSING TO RUN: the compiled C kernel did not load and the "
            "program fell back to numpy",
            file=sys.stderr,
        )
        return 2

    workload = WORKLOADS[args.workload]
    args.workdir = OUT / f"work-{os.getpid()}"
    try:
        if args.trace:
            outcomes, metrics, extra = traced(args, workload)
        else:
            outcomes, setup_s = measured(args, workload)
            extra = {"setup_s": setup_s}
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    checks = run_checks(workload, outcomes)
    failed = [name for name, ok in checks if not ok]
    for name in failed:
        print(f"CHECK FAILED: {name}")
    if not args.trace:
        metrics = end_to_end_metrics(outcomes, setup_s, len(checks), len(failed))
    units = LAYER_METRICS if args.trace else END_TO_END
    for name, value in metrics.items():
        print(f"{name:<40} {value:>14.6g} {units[name]}")
    prints = fingerprint(outcomes[0])
    digest = hashlib.sha256(json.dumps(prints).encode()).hexdigest()[:16]
    print(f"simulated-statistics fingerprint: {digest} ({len(prints)} points)")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        **extra,
        "runs_wall_s": [o.wall_s for o in outcomes],
        "metrics": metrics,
        "fingerprint": prints,
        "fingerprint_sha256": digest,
        "failed_checks": failed,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n"
    )
    result = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
