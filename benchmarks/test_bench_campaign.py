"""CAMPAIGN — throughput of the campaign engine, serial vs. process pool.

A 64-point model grid (S7, M = 32, V = 8, rates spanning 30-98% of the
predicted saturation onset) runs once through the serial executor and
once through a 4-worker process pool.  ``extra_info`` records
points-per-second for both plus the speedup; on hosts with >= 4 CPUs the
pool must deliver at least a 2x speedup (the ISSUE-1 acceptance gate —
skipped where the hardware cannot express it).
"""

from __future__ import annotations

import math
import os
import time

from repro.campaign.grid import GridSpec
from repro.campaign.kinds import lookup, run_units_fused
from repro.campaign.runner import run_campaign
from repro.core.model import StarLatencyModel

_ORDER, _M, _V = 7, 32, 8
_POINTS = 64
_POOL_WORKERS = 4
#: Alternating timed calls per side of the fused-sweep gate.
_GATE_SAMPLES = 5


def _campaign_grid() -> GridSpec:
    model = StarLatencyModel(_ORDER, _M, _V)
    sat = model.saturation_rate()
    rates = tuple(
        round((0.30 + 0.68 * i / (_POINTS - 1)) * sat, 9) for i in range(_POINTS)
    )
    return GridSpec(
        kind="model",
        axes=(("rate", rates),),
        pinned=(("order", _ORDER), ("message_length", _M), ("total_vcs", _V)),
    )


def test_campaign_serial_throughput(benchmark, once):
    grid = _campaign_grid()  # warm path statistics before the clock starts
    result = once(run_campaign, grid.expand(), workers=1)
    assert result.computed == _POINTS
    assert all(not r.saturated for r in result.results[: _POINTS // 2])
    benchmark.extra_info["points"] = _POINTS
    benchmark.extra_info["points_per_second"] = round(result.units_per_second, 1)


def test_campaign_parallel_speedup(benchmark, once):
    grid = _campaign_grid()
    units = grid.expand()

    t0 = time.perf_counter()
    serial = run_campaign(units, workers=1)
    serial_s = time.perf_counter() - t0

    pooled = once(run_campaign, units, workers=_POOL_WORKERS)
    assert pooled.computed == _POINTS
    # The pool must agree with the serial executor exactly.
    assert pooled.results == serial.results

    speedup = serial_s / pooled.elapsed_s if pooled.elapsed_s > 0 else 0.0
    cpus = os.cpu_count() or 1
    benchmark.extra_info["cpus"] = cpus
    benchmark.extra_info["workers"] = _POOL_WORKERS
    benchmark.extra_info["serial_points_per_second"] = round(_POINTS / serial_s, 1)
    benchmark.extra_info["parallel_points_per_second"] = round(
        pooled.units_per_second, 1
    )
    benchmark.extra_info["speedup"] = round(speedup, 2)
    if cpus >= _POOL_WORKERS:
        assert speedup >= 2.0, (
            f"4-worker pool delivered only {speedup:.2f}x over serial "
            f"({cpus} CPUs available)"
        )


def _sim_ladder_units():
    """A 10-rate S4 array-engine ladder, 4 pooled seeds per rung."""
    model = StarLatencyModel(4, 32, 5)
    sat = model.saturation_rate()
    rates = tuple(round((0.1 + 0.05 * i) * sat, 9) for i in range(10))
    grid = GridSpec(
        kind="sim",
        axes=(("generation_rate", rates),),
        pinned=(
            ("order", 4),
            ("message_length", 32),
            ("total_vcs", 5),
            ("engine", "array"),
            ("replications", 4),
            ("seed", 0),
            ("warmup_cycles", 300),
            ("measure_cycles", 1_500),
            ("drain_cycles", 2_500),
        ),
    )
    return grid.expand()


def test_bench_campaign_fused_sweep(benchmark, once):
    """Whole-sweep fusion: the rate ladder as one SimState vs per-unit.

    ``run_units_fused`` folds every structurally compatible array-engine
    unit of the sweep — here 10 rungs x 4 seeds = 40 replications — into
    a single batched simulation, which is what ``Scenario.sweep`` does
    for in-process sweeps.  The gate only requires parity-plus (fusion
    must never be slower), each side timed as the min of
    ``_GATE_SAMPLES`` alternating calls; ``extra_info`` records the
    actual gain.
    """
    units = _sim_ladder_units()

    fused = once(run_units_fused, units)
    # Both sides are sampled the same way, as the min of alternating
    # calls, so one collector pause or busy neighbour cannot decide it.
    per_unit_s = fused_s = math.inf
    for _ in range(_GATE_SAMPLES):
        t0 = time.perf_counter()
        per_unit = [lookup(u.kind)(u.params) for u in units]
        per_unit_s = min(per_unit_s, time.perf_counter() - t0)
        t0 = time.perf_counter()
        run_units_fused(units)
        fused_s = min(fused_s, time.perf_counter() - t0)
    # Fusion must be invisible in the results (per-replication purity).
    assert fused == per_unit

    speedup = per_unit_s / fused_s if fused_s > 0 else 0.0
    benchmark.extra_info["units"] = len(units)
    benchmark.extra_info["per_unit_s"] = round(per_unit_s, 3)
    benchmark.extra_info["fused_s"] = round(fused_s, 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    assert speedup >= 1.0, (
        f"fused sweep slower than per-unit dispatch ({speedup:.2f}x)"
    )
