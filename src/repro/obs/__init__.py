"""Observability: metrics registry, span timers, structured events.

The platform's three hot layers — the array simulator's C cycle loop, the
campaign engine, and the capacity-planning service — each gained real
concurrency over PRs 6-8 without gaining any way to watch it run.  This
package is the shared, dependency-free telemetry layer they report
through:

* :mod:`repro.obs.registry` — a thread-safe :class:`MetricsRegistry`
  of counters, gauges and fixed-bucket histograms, rendered either as
  a JSON-safe snapshot (``/stats``) or in the Prometheus text
  exposition format (``/metrics``);
* :mod:`repro.obs.timers` — monotonic-clock span timers
  (:class:`Stopwatch`, :func:`span`) feeding histograms;
* :mod:`repro.obs.events` — a structured JSONL :class:`EventSink`
  (campaign lifecycle events, heartbeats, optional ``max_bytes``
  rotation) with the same strict-JSON conventions as the ResultSet
  wire format: non-finite floats serialise as ``null``, never as bare
  ``NaN`` tokens;
* :mod:`repro.obs.tracing` — trace/span context propagated service
  query → campaign unit → kernel run, emitted through the event sink
  and exportable as Chrome trace-event JSON;
* :mod:`repro.obs.probes` — the schema, warmup-adequacy detector and
  terminal rendering of the kernels' cycle-resolution time-series
  probes (the one numpy-dependent module here — it post-processes
  kernel buffers).

Everything else is stdlib-only; all of it is safe to import from
worker threads, and nothing in this package ever blocks on I/O while
holding a metric lock.  See ``docs/observability.md`` for the full
metric and event catalogue.
"""

from repro.obs.events import EventSink, Heartbeat, read_events
from repro.obs.probes import (
    adequacy_probe_interval,
    build_timeseries,
    default_probe_interval,
    mser_truncation,
    series_rows,
    sparkline,
    warmup_adequacy,
)
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    LATENCY_BUCKETS,
)
from repro.obs.timers import Stopwatch, span
from repro.obs.tracing import (
    TraceContext,
    emit_span,
    export_chrome_trace,
    span_timer,
    span_tree,
)

__all__ = [
    "Counter",
    "EventSink",
    "Gauge",
    "Heartbeat",
    "Histogram",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "Stopwatch",
    "TraceContext",
    "adequacy_probe_interval",
    "build_timeseries",
    "default_probe_interval",
    "emit_span",
    "export_chrome_trace",
    "mser_truncation",
    "read_events",
    "series_rows",
    "span",
    "span_timer",
    "span_tree",
    "sparkline",
    "warmup_adequacy",
]
