"""Measurement infrastructure: latency accumulators and run results.

Latencies follow the paper's definitions (section 5):

* *message latency* — generation until the last flit reaches the
  destination PE;
* *network latency* — first-channel acquisition until the last flit
  reaches the destination PE;
* *source queueing time* — generation until first-channel acquisition.

Confidence intervals use the method of batch means over the measurement
window (messages are assigned to batches by generation time), with the
Student-t critical value for the number of batch means
(:func:`t_halfwidth`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "t_halfwidth",
    "LatencyAccumulator",
    "ChannelLoadSampler",
    "HopBlockingStats",
    "SimulationResult",
]


#: Two-sided 95% Student-t critical values t_{0.975, df} for df = 1..30.
_T975 = (
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
    2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
    2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
)

#: ``(df, t_{0.975, df})`` anchors past the table; the last is df = inf.
_T975_TAIL = ((30, 2.042), (40, 2.021), (60, 2.000), (120, 1.980), (math.inf, 1.960))


def _t975(df: int) -> float:
    """t_{0.975, df}: tabled to df 30, then linear in 1/df to the normal."""
    if df <= len(_T975):
        return _T975[df - 1]
    (d0, t0), (d1, t1) = next(
        pair for pair in zip(_T975_TAIL, _T975_TAIL[1:]) if df <= pair[1][0]
    )
    return t0 + (1 / d0 - 1 / df) / (1 / d0 - 1 / d1) * (t1 - t0)


def t_halfwidth(means) -> float:
    """95% CI half-width ``t_{0.975, k-1} * s / sqrt(k)`` of ``k`` means.

    ``s`` is the sample standard deviation of the means; NaN when
    ``k < 2``.  Every confidence interval the simulator reports (per-run
    batch means and pooled replications) goes through here.
    """
    k = len(means)
    if k < 2:
        return math.nan
    mu = sum(means) / k
    var = sum((m - mu) ** 2 for m in means) / (k - 1)
    return _t975(k - 1) * math.sqrt(var / k)


class HopBlockingStats:
    """Measured per-hop blocking — the simulator's view of Eq. (6).

    For every hop index k (1-based) this tracks how many headers
    requested that hop, how many found all eligible virtual channels busy
    on the first attempt, and how long blocked headers waited — directly
    comparable with the model's ``P_block(k)`` and ``w``.
    """

    def __init__(self, max_hops: int):
        if max_hops < 1:
            raise ValueError("max_hops must be >= 1")
        self.max_hops = max_hops
        self._requests = [0] * (max_hops + 1)
        self._blocked = [0] * (max_hops + 1)
        self._wait_total = [0.0] * (max_hops + 1)

    def record(self, hop_index: int, waited: float) -> None:
        """One completed hop allocation: ``waited`` cycles before success."""
        k = min(max(hop_index, 1), self.max_hops)
        self._requests[k] += 1
        if waited > 0:
            self._blocked[k] += 1
            self._wait_total[k] += waited

    @classmethod
    def merge(cls, stats: "list[HopBlockingStats]") -> "HopBlockingStats":
        """Pool several replications' hop statistics into one.

        Requests, blocked counts and waited cycles add across
        replications (each hop allocation is one observation wherever it
        happened), so the pooled ``P_block(k)`` and waits are the
        sample-weighted means — the hop-table counterpart of
        :func:`repro.simulation.backends.summarize_batch`.
        """
        if not stats:
            raise ValueError("merge needs at least one HopBlockingStats")
        out = cls(max(s.max_hops for s in stats))
        for s in stats:
            for k in range(1, s.max_hops + 1):
                out._requests[k] += s._requests[k]
                out._blocked[k] += s._blocked[k]
                out._wait_total[k] += s._wait_total[k]
        return out

    def blocking_probability(self, k: int) -> float:
        """P(header found no eligible VC when first requesting hop k)."""
        if self._requests[k] == 0:
            return math.nan
        return self._blocked[k] / self._requests[k]

    def mean_wait_when_blocked(self, k: int) -> float:
        """Mean cycles a blocked header waited at hop k (the paper's w)."""
        if self._blocked[k] == 0:
            return math.nan
        return self._wait_total[k] / self._blocked[k]

    def mean_blocking_delay(self, k: int) -> float:
        """P_block(k) * w(k) — the per-hop term B of paper Eq. (6)."""
        if self._requests[k] == 0:
            return math.nan
        return self._wait_total[k] / self._requests[k]

    def as_rows(self) -> list[dict]:
        """Table rows for hops that saw traffic."""
        out = []
        for k in range(1, self.max_hops + 1):
            if self._requests[k] == 0:
                continue
            out.append(
                {
                    "hop": k,
                    "requests": self._requests[k],
                    "p_block": round(self.blocking_probability(k), 5),
                    "wait_when_blocked": (
                        round(self.mean_wait_when_blocked(k), 3)
                        if self._blocked[k]
                        else 0.0
                    ),
                    "blocking_delay": round(self.mean_blocking_delay(k), 4),
                }
            )
        return out


class LatencyAccumulator:
    """Streaming mean/variance plus batch means for one latency metric."""

    def __init__(self, batches: int, t_start: float, t_end: float):
        if batches < 1:
            raise ValueError("batches must be >= 1")
        if t_end <= t_start:
            raise ValueError("empty measurement window")
        self._batches = batches
        self._t0 = t_start
        self._width = (t_end - t_start) / batches
        self._sum = 0.0
        self._sumsq = 0.0
        self._count = 0
        self._batch_sum = [0.0] * batches
        self._batch_count = [0] * batches

    def add(self, t_gen: float, value: float) -> None:
        """Record one message's latency, batched by generation time."""
        self._sum += value
        self._sumsq += value * value
        self._count += 1
        b = int((t_gen - self._t0) / self._width)
        b = min(max(b, 0), self._batches - 1)
        self._batch_sum[b] += value
        self._batch_count[b] += 1

    def add_batch(self, t_gen, values) -> None:
        """Record many messages at once (array-backend completion kernel).

        Equivalent to calling :meth:`add` element-wise; sums and batch
        assignment are vectorized so a batched replication's completions
        cost one pass instead of a Python loop.
        """
        if len(values) <= 8:
            # Typical completion bursts are tiny; scalar adds beat the
            # vectorized path's fixed overhead there.
            for t, v in zip(t_gen, values):
                self.add(float(t), float(v))
            return
        t_gen = np.asarray(t_gen, dtype=float)
        values = np.asarray(values, dtype=float)
        self._sum += float(values.sum())
        self._sumsq += float((values * values).sum())
        self._count += values.size
        b = ((t_gen - self._t0) / self._width).astype(int)
        np.clip(b, 0, self._batches - 1, out=b)
        sums = np.bincount(b, weights=values, minlength=self._batches)
        counts = np.bincount(b, minlength=self._batches)
        for i in range(self._batches):
            if counts[i]:
                self._batch_sum[i] += float(sums[i])
                self._batch_count[i] += int(counts[i])

    @property
    def count(self) -> int:
        """Number of recorded messages."""
        return self._count

    @property
    def mean(self) -> float:
        """Sample mean (NaN when empty)."""
        return self._sum / self._count if self._count else math.nan

    @property
    def std(self) -> float:
        """Sample standard deviation (NaN when < 2 samples)."""
        if self._count < 2:
            return math.nan
        var = (self._sumsq - self._sum * self._sum / self._count) / (self._count - 1)
        return math.sqrt(max(var, 0.0))

    def batch_means(self) -> list[float]:
        """Per-batch means (non-empty batches only)."""
        return [
            s / c for s, c in zip(self._batch_sum, self._batch_count) if c > 0
        ]

    def ci_halfwidth(self) -> float:
        """95% Student-t half-width from batch means (NaN with < 2 batches)."""
        return t_halfwidth(self.batch_means())


class ChannelLoadSampler:
    """Periodic sampler of per-channel busy-VC counts.

    Estimates the average multiplexing degree of Dally's equation (19):
    V̄ = E[v²] / E[v] with v the number of busy VCs at a channel.  Idle
    channels contribute zero to both moments, so sampling only busy
    channels is exact.
    """

    def __init__(self, num_channels: int):
        self._num_channels = num_channels
        self._samples = 0
        self._sum_v = 0
        self._sum_v2 = 0
        self._busy_channel_samples = 0

    def sample(self, busy_counts: list[int]) -> None:
        """Record one snapshot given the busy-VC count of busy channels."""
        self._samples += 1
        for v in busy_counts:
            self._sum_v += v
            self._sum_v2 += v * v
            self._busy_channel_samples += 1

    def sample_counts(self, counts: np.ndarray) -> None:
        """Record one snapshot from a dense per-channel busy-count array.

        Mirrors :meth:`sample` fed with the busy channels only: idle
        channels (count 0) contribute nothing to either moment or to the
        busy-channel tally.
        """
        self._samples += 1
        counts = counts[counts > 0]
        if counts.size:
            self._sum_v += int(counts.sum())
            self._sum_v2 += int((counts * counts).sum())
            self._busy_channel_samples += counts.size

    @property
    def multiplexing_degree(self) -> float:
        """V̄ estimate (1.0 when no traffic was observed)."""
        if self._sum_v == 0:
            return 1.0
        return self._sum_v2 / self._sum_v

    @property
    def mean_busy_vcs(self) -> float:
        """Average busy VCs per channel (over all channels and samples)."""
        if self._samples == 0:
            return 0.0
        return self._sum_v / (self._samples * self._num_channels)


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one simulation run."""

    mean_latency: float
    mean_network_latency: float
    mean_source_wait: float
    latency_ci: float
    messages_measured: int
    messages_generated: int
    messages_completed: int
    saturated: bool
    offered_rate: float
    accepted_rate: float
    mean_multiplexing: float
    channel_utilization: float
    cycles_run: int
    backlog: int
    #: Per-hop measured blocking (None when instrumentation disabled).
    hop_blocking: HopBlockingStats | None = None
    #: Per-phase kernel wall time in nanoseconds (None unless the run
    #: was profiled; a batched run attaches the whole batch's timing to
    #: its first replication — see ArraySimulator.phase_profile).
    phase_ns: dict | None = None
    #: Cycle-resolution probe series (None unless the run was probed; a
    #: batched run attaches the whole batch's series to its first
    #: replication — see ArraySimulator.probe_series and
    #: repro.obs.probes.build_timeseries for the schema).
    timeseries: dict | None = None

    def as_dict(self) -> dict:
        """JSON-friendly view (rounded for table rendering)."""
        return {
            "mean_latency": round(self.mean_latency, 3),
            "mean_network_latency": round(self.mean_network_latency, 3),
            "mean_source_wait": round(self.mean_source_wait, 3),
            "latency_ci": round(self.latency_ci, 3) if not math.isnan(self.latency_ci) else None,
            "messages_measured": self.messages_measured,
            "messages_generated": self.messages_generated,
            "messages_completed": self.messages_completed,
            "saturated": self.saturated,
            "offered_rate": self.offered_rate,
            "accepted_rate": round(self.accepted_rate, 6),
            "mean_multiplexing": round(self.mean_multiplexing, 4),
            "channel_utilization": round(self.channel_utilization, 4),
            "cycles_run": self.cycles_run,
            "backlog": self.backlog,
            # Only profiled runs carry phase timing; omitting the key
            # otherwise keeps historical payloads byte-identical.
            **({"phase_ns": dict(self.phase_ns)} if self.phase_ns else {}),
            # Likewise only probed runs carry the time series.
            **({"timeseries": dict(self.timeseries)} if self.timeseries else {}),
        }
