"""Cycle-resolution time-series probes: schema, warmup checks, rendering.

The array simulator's C cycle loop can append one probe sample every k
cycles (``ArraySimulator(probe_interval=k)``): per replication the
in-flight count, cumulative completed count, source-queue backlog and a
histogram of per-channel busy-VC counts, all int64 (see
``state.SimState.alloc_probes`` for the buffer layout).  This module
turns those raw ring buffers into the surfaced artefacts:

* :func:`build_timeseries` — the ``SimulationResult.timeseries`` dict,
  aggregated across the batch's replications (JSON-friendly lists);
* :func:`mser_truncation` / :func:`warmup_adequacy` — an MSER-style
  steady-state truncation point on the in-flight series, so ``starnet
  validate`` can warn when the configured warmup window ends before
  the transient has died out;
* :func:`sparkline` / :func:`series_rows` — terminal rendering for
  ``starnet sim --watch``.

Unlike the rest of :mod:`repro.obs` this module depends on numpy (it
post-processes kernel buffers); it stays import-safe from worker
threads and never touches the simulator itself.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "adequacy_probe_interval",
    "build_timeseries",
    "default_probe_interval",
    "mser_truncation",
    "series_rows",
    "sparkline",
    "warmup_adequacy",
]

#: Sample count :func:`default_probe_interval` aims for — enough for a
#: sparkline and a stable MSER minimum, cheap enough to probe always.
_TARGET_SAMPLES = 256

#: Per-replication sample columns before the occupancy histogram.
_FIXED_COLS = 3


#: Sample count :func:`adequacy_probe_interval` aims for — fine enough
#: that an MSER batch spans tens of cycles and a short transient is
#: resolvable, still cheap next to the simulation itself.
_ADEQUACY_SAMPLES = 1024


def default_probe_interval(total_cycles: int, samples: int = _TARGET_SAMPLES) -> int:
    """A probe stride giving about ``samples`` samples over the run."""
    if total_cycles < 1:
        raise ValueError(f"total_cycles must be >= 1, got {total_cycles}")
    return max(1, total_cycles // samples)


def adequacy_probe_interval(total_cycles: int) -> int:
    """The finer probe stride the warmup-adequacy check wants.

    :func:`warmup_adequacy` resolves the transient at MSER batch
    granularity (``batch`` consecutive samples), so the stride must keep
    one batch narrower than the transients worth detecting — a ramp
    shorter than a batch is invisible to the truncation rule.  ~1024
    samples over the run puts a 5-sample batch at tens of cycles on the
    standard quality windows.
    """
    return default_probe_interval(total_cycles, samples=_ADEQUACY_SAMPLES)


def build_timeseries(
    data: np.ndarray,
    cycles: np.ndarray,
    *,
    interval: int,
    num_vcs: int,
) -> dict:
    """Aggregate raw probe samples into the surfaced time-series dict.

    ``data`` is the filled slice of the probe ring, shape ``(n, R,
    3 + V + 1)``; ``cycles`` the matching cycle stamps.  Per-replication
    rows are summed (the batch advances as one unit, so whole-batch
    series are the meaningful dynamics view).  Keys:

    * ``interval``, ``replications``, ``total_vcs`` — probe metadata;
    * ``cycles`` — sample cycle stamps;
    * ``in_flight`` — messages in the network, summed over replications;
    * ``completed`` — cumulative completed messages;
    * ``throughput`` — completed-count delta per cycle between samples;
    * ``backlog`` — messages waiting in source queues;
    * ``occupancy`` — per-sample histogram of channels by busy-VC count
      (bins 0..V, summed over replications).

    Everything is plain ints/floats in lists, safe for strict JSON.
    """
    if interval < 1:
        raise ValueError(f"interval must be >= 1, got {interval}")
    n = data.shape[0]
    reps = data.shape[1] if n else 0
    agg = data.sum(axis=1, dtype=np.int64) if n else np.zeros((0, 0))
    completed = agg[:, 1] if n else np.zeros(0, dtype=np.int64)
    # Cycle stamps step uniformly by the interval, so each sample's
    # throughput is its completed delta over one stride (the first
    # sample's baseline is zero completions at cycle -interval).
    delta = np.diff(completed, prepend=0)
    return {
        "interval": int(interval),
        "replications": int(reps),
        "total_vcs": int(num_vcs),
        "cycles": [int(c) for c in cycles[:n]],
        "in_flight": [int(x) for x in (agg[:, 0] if n else [])],
        "completed": [int(x) for x in completed],
        "throughput": [float(d) / interval for d in delta],
        "backlog": [int(x) for x in (agg[:, 2] if n else [])],
        "occupancy": [
            [int(x) for x in row] for row in (agg[:, _FIXED_COLS:] if n else [])
        ],
    }


def mser_truncation(values, batch: int = 5) -> int:
    """MSER-5 truncation index: where deleting the transient stops paying.

    Averages the series into batches of ``batch`` consecutive samples
    (the smoothing that makes White's MSER rule robust on noisy
    observations), then minimises the marginal standard error
    ``sum_{j>=d} (z_j - mean_d)^2 / (k - d)^2`` over candidate batch
    truncation points ``d`` in the first half (restricting d keeps the
    statistic from degenerating on a handful of tail points).  Returns
    the *sample* index where the chosen batch starts — 0 means the
    series was stationary from the start.
    """
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    x = np.asarray(values, dtype=np.float64)
    k = x.size // batch
    if k < 4:
        return 0
    z = x[: k * batch].reshape(k, batch).mean(axis=1)
    # Suffix sums give every candidate's tail mean/variance in O(k).
    csum = np.cumsum(z[::-1])[::-1]
    csq = np.cumsum((z * z)[::-1])[::-1]
    d = np.arange(k // 2)
    m = k - d
    tail_sum = csum[d]
    tail_sq = csq[d]
    # sum((z - mean)^2) = sum(z^2) - sum(z)^2 / m
    sse = tail_sq - tail_sum * tail_sum / m
    mser = sse / (m * m)
    return int(np.argmin(mser)) * batch


def warmup_adequacy(
    timeseries: dict,
    warmup_cycles: int,
    *,
    measure_end: int | None = None,
    batch: int = 5,
    effect_threshold: float = 2.0,
) -> dict:
    """Judge a warmup window against the measured transient.

    Runs :func:`mser_truncation` on the aggregate in-flight series
    (restricted to cycles below ``measure_end`` so the drain ramp-down
    never masquerades as a transient) and flags the warmup *inadequate*
    only when two signals agree:

    1. the MSER truncation point lands past the warmup boundary, and
    2. the batch means between the warmup boundary and the truncation
       point — the stretch a short warmup measures but MSER says it
       should not — are displaced from the detected steady state by
       more than ``effect_threshold`` standard errors (steady-state
       batch stddev over the square root of the segment's batch count).

    The second test is what makes the check usable on noisy series: on
    a stationary-but-jittery run MSER's argmin wanders (any truncation
    point is as good as any other), but the batches right after warmup
    then sit squarely inside the steady band — no false alarm; a
    genuinely undercooked warmup measures the ramp-up, whose segment
    mean sits several errors below steady state.  Batching at ``batch``
    samples keeps the means near-independent, so the t-like statistic
    is honest despite the series' autocorrelation.  The caller controls
    sensitivity through the probe stride — sample with
    :func:`adequacy_probe_interval` so one batch stays narrower than
    the transients worth detecting.  Returns::

        {"adequate": bool, "truncation_cycle": int, "warmup_cycles":
         int, "post_warmup_effect": float, "samples": int,
         "series": "in_flight"}

    Fewer than ``8 * batch`` usable samples trivially pass (there is
    no evidence either way).
    """
    cycles = np.asarray(timeseries["cycles"], dtype=np.int64)
    values = np.asarray(timeseries["in_flight"], dtype=np.float64)
    if measure_end is not None:
        keep = cycles < measure_end
        cycles = cycles[keep]
        values = values[keep]
    d = mser_truncation(values, batch=batch)
    truncation_cycle = int(cycles[d]) if cycles.size else 0
    effect = 0.0
    k = values.size // batch
    if truncation_cycle > warmup_cycles and k >= 8:
        z = values[: k * batch].reshape(k, batch).mean(axis=1)
        z_cycles = cycles[: k * batch : batch]
        db = d // batch
        # The segment starts at the batch *containing* the warmup
        # boundary (a ramp shorter than one batch still shows up) and
        # runs to the truncation batch; a degenerate split keeps the
        # straddling batch alone.
        j = max(0, int(np.searchsorted(z_cycles, warmup_cycles, side="right")) - 1)
        segment = z[j : max(db, j + 1)]
        steady = z[db:]
        sd = float(steady.std())
        if sd > 0 and steady.size >= 4:
            effect = abs(float(segment.mean()) - float(steady.mean())) / (
                sd / math.sqrt(segment.size)
            )
    return {
        "adequate": truncation_cycle <= warmup_cycles or effect <= effect_threshold,
        "truncation_cycle": truncation_cycle,
        "warmup_cycles": int(warmup_cycles),
        "post_warmup_effect": round(effect, 3),
        "samples": int(values.size),
        "series": "in_flight",
    }


#: Eight-level bar glyphs, lowest to highest.
_SPARK_GLYPHS = "▁▂▃▄▅▆▇█"


def sparkline(values, width: int = 60) -> str:
    """Render a series as a fixed-width unicode sparkline.

    Longer series are bucketed by mean down to ``width`` columns; a
    constant (or empty) series renders as the lowest bar so the eye
    reads "flat", not "missing".
    """
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    x = np.asarray(values, dtype=np.float64)
    x = x[np.isfinite(x)]
    if x.size == 0:
        return ""
    if x.size > width:
        # Mean-pool into width buckets of near-equal size.
        edges = np.linspace(0, x.size, width + 1).astype(int)
        x = np.array([x[a:b].mean() for a, b in zip(edges[:-1], edges[1:])])
    lo = float(x.min())
    hi = float(x.max())
    span = hi - lo
    if span <= 0 or not math.isfinite(span):
        return _SPARK_GLYPHS[0] * x.size
    idx = ((x - lo) / span * (len(_SPARK_GLYPHS) - 1)).round().astype(int)
    return "".join(_SPARK_GLYPHS[i] for i in idx)


def series_rows(timeseries: dict, every: int = 1) -> list[dict]:
    """Flatten a time-series dict into table rows (``starnet sim --watch``).

    One row per retained sample: cycle, in-flight, throughput, backlog
    and the busiest occupancy bin.  ``every`` keeps each ``every``-th
    sample (plus the last), so long runs fit a terminal.
    """
    if every < 1:
        raise ValueError(f"every must be >= 1, got {every}")
    cycles = timeseries["cycles"]
    n = len(cycles)
    rows = []
    for i in range(n):
        if i % every and i != n - 1:
            continue
        occ = timeseries["occupancy"][i]
        busy = [b for b in range(1, len(occ)) if occ[b]]
        rows.append(
            {
                "cycle": cycles[i],
                "in_flight": timeseries["in_flight"][i],
                "throughput": round(timeseries["throughput"][i], 4),
                "backlog": timeseries["backlog"][i],
                "max_busy_vcs": busy[-1] if busy else 0,
            }
        )
    return rows
