"""Monotonic-clock span timers feeding the metrics registry.

Two shapes cover the call sites:

* :class:`Stopwatch` — an explicit start/stop accumulator over
  ``time.perf_counter_ns`` (the same clock class the C cycle loop's
  ``CLOCK_MONOTONIC`` profiling uses), for hand-rolled hot loops;
* :func:`span` — a context manager that observes the elapsed seconds
  into a :class:`~repro.obs.registry.Histogram` on exit, exceptional
  or not, for request-scoped timing.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Iterator

from repro.obs.registry import Histogram

__all__ = ["Stopwatch", "span"]


class Stopwatch:
    """Accumulating nanosecond timer over the monotonic clock.

    ``start``/``stop`` pairs add into :attr:`elapsed_ns`; re-entrant
    use is a bug the class guards against rather than silently
    mis-measuring.
    """

    __slots__ = ("elapsed_ns", "laps", "_t0")

    def __init__(self) -> None:
        self.elapsed_ns = 0
        self.laps = 0
        self._t0: int | None = None

    def start(self) -> "Stopwatch":
        if self._t0 is not None:
            raise RuntimeError("Stopwatch.start() while already running")
        self._t0 = time.perf_counter_ns()
        return self

    def stop(self) -> int:
        """Stop and return this lap's nanoseconds."""
        if self._t0 is None:
            raise RuntimeError("Stopwatch.stop() without start()")
        lap = time.perf_counter_ns() - self._t0
        self._t0 = None
        self.elapsed_ns += lap
        self.laps += 1
        return lap

    @property
    def elapsed_s(self) -> float:
        return self.elapsed_ns / 1e9


@contextmanager
def span(histogram: Histogram, **labels: Any) -> Iterator[Stopwatch]:
    """Time a block and observe the seconds into ``histogram``.

    The observation happens even when the block raises, so error paths
    stay visible in the latency distribution instead of vanishing.
    """
    watch = Stopwatch().start()
    try:
        yield watch
    finally:
        watch.stop()
        histogram.observe(watch.elapsed_s, **labels)
