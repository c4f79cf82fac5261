"""The query engine: warm store -> surrogate -> cold fallback.

:class:`QueryEngine` answers :class:`~repro.service.query.Query` points
against a campaign result store through a three-tier resolution ladder:

1. **warm** — the store already holds a row at exactly this scenario
   and rate (same content-hash identity a campaign would use): return
   it unchanged, tagged ``meta["served"] = "warm"``.
2. **surrogate** — the store holds this scenario's rate ladder and the
   query rate falls inside its unsaturated sampled span: interpolate
   (:mod:`repro.service.surrogate`), returning a ``surrogate``
   provenance row with a stated ``error_budget``.
3. **cold** — nothing cached applies: evaluate the analytical model
   (or, when the model cannot represent the scenario, the bound engine)
   inline — milliseconds, always sound — tag it ``"cold"``, and enqueue
   a simulation work unit so background refinement lands the measured
   row in the store and upgrades the next identical query to warm.
   Refinement runs on the scenario's engine (the array engine unless the
   query names ``engine="object"``); the unit's key and the refined
   row's ``engine`` name it.

The engine is thread-safe: the HTTP server answers queries from
executor threads while a refinement worker drains the queue, and both
paths share one lock around index state.  The store index rebuilds only
when the store's on-disk signature changes, so steady-state answers are
dictionary lookups.

Telemetry lives in a per-engine :class:`~repro.obs.MetricsRegistry`
(tier counters, per-tier latency histograms, refinement queue depth,
store appends).  The registry's single lock makes every increment
atomic — the plain-dict ``counters`` this replaces lost updates when
executor threads raced the refinement worker on ``+=``.  ``counters``
survives as a read-only snapshot property; ``GET /metrics`` renders the
same registry in Prometheus text format.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace
from pathlib import Path
from typing import Any

from repro.api.convert import row_from_unit
from repro.api.results import ResultRow
from repro.api.scenario import run_units
from repro.campaign import cache
from repro.campaign.grid import WorkUnit, canonical_key
from repro.campaign.kinds import lookup
from repro.campaign.store import ResultStore, open_store
from repro.obs import (
    LATENCY_BUCKETS,
    EventSink,
    MetricsRegistry,
    TraceContext,
    emit_span,
    span_timer,
)
from repro.service.query import Query
from repro.service.surrogate import SurrogateFit, SurrogateIndex, query_families
from repro.simulation.backends import available_engines
from repro.utils.exceptions import ConfigurationError

__all__ = ["QueryEngine"]

#: Family namespaces in warm/surrogate preference order: measured
#: simulation rows beat analytical rows beat worst-case bounds.
_PREFERENCE = ("sim", "model", "bound")


class QueryEngine:
    """Resolve scenario queries against a store, with cold fallback.

    Parameters
    ----------
    store:
        A :class:`ResultStore` (flat or sharded) or a path for
        :func:`open_store`.  Refined rows are appended here.
    cache_dir:
        Optional shared path-statistics / flow-profile disk cache used
        by cold evaluations and refinement workers.
    refine:
        Master switch for background refinement (a query may also opt
        out individually).  :meth:`refine` drains the queue serially
        in the calling thread.
    auto_refresh:
        Re-index when the store's signature changes (set False only in
        benchmarks that want the index pinned).
    trace_events:
        Optional span/event destination — an
        :class:`~repro.obs.EventSink` or a JSONL path to open one at
        (``starnet serve --trace-events``).  When set, every answered
        query emits a ``service.query`` span, refinement units emit
        ``refine.unit`` spans parented under the query that enqueued
        them, and the refinement campaign's lifecycle events land in the
        same file — one stream carries a whole request tree, exportable
        with ``starnet trace export``.
    """

    def __init__(
        self,
        store: ResultStore | str | Path,
        *,
        cache_dir: str | Path | None = None,
        refine: bool = True,
        auto_refresh: bool = True,
        trace_events: EventSink | str | Path | None = None,
    ):
        self.store = store if isinstance(store, ResultStore) else open_store(store)
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.refine_enabled = refine
        self.auto_refresh = auto_refresh
        if self.cache_dir is not None:
            cache.configure(self.cache_dir)
        self._lock = threading.Lock()
        self._index: SurrogateIndex | None = None
        self._signature: tuple | None = None
        self._queue: dict[str, WorkUnit] = {}
        #: Trace context per queued refinement key: the child span the
        #: enqueuing query reserved for its refinement unit.
        self._trace_by_key: dict[str, TraceContext] = {}
        if trace_events is None or isinstance(trace_events, EventSink):
            self.trace_sink = trace_events
            self._owns_sink = False
        else:
            self.trace_sink = EventSink(trace_events)
            self._owns_sink = True
        self._t_created = time.monotonic()
        self.registry = MetricsRegistry()
        self._c_queries = self.registry.counter(
            "starnet_queries_total",
            "Queries answered, by resolution tier",
            labelnames=("tier",),
        )
        self._h_latency = self.registry.histogram(
            "starnet_query_latency_seconds",
            "Service-side query latency, by resolution tier",
            labelnames=("tier",),
            buckets=LATENCY_BUCKETS,
        )
        self._c_refined = self.registry.counter(
            "starnet_refinements_total",
            "Background refinement units completed, by simulation engine",
            labelnames=("engine",),
        )
        self._c_appends = self.registry.counter(
            "starnet_store_appends_total",
            "Rows appended to the store by refinement",
        )
        self._g_queue = self.registry.gauge(
            "starnet_refinement_queue_depth",
            "Refinement units awaiting a background drain",
        )
        self._g_indexed = self.registry.gauge(
            "starnet_indexed_records",
            "Store records in the in-memory surrogate index",
        )
        # Materialise the series at 0 so a scrape before the first
        # refinement still sees every catalogued metric.
        for name in available_engines():
            self._c_refined.inc(0, engine=name)
        self._c_appends.inc(0)
        self._g_queue.set(0)

    # -- index lifecycle ------------------------------------------------

    def _current_index(self) -> SurrogateIndex:
        with self._lock:
            signature = self.store.signature() if self.auto_refresh else self._signature
            if self._index is None or signature != self._signature:
                self._signature = (
                    self.store.signature() if signature is None else signature
                )
                self._index = SurrogateIndex(self.store.load())
                self._g_indexed.set(len(self._index))
            return self._index

    def refresh(self) -> SurrogateIndex:
        """Force a rebuild of the in-memory index from the store."""
        with self._lock:
            self._signature = self.store.signature()
            self._index = SurrogateIndex(self.store.load())
            self._g_indexed.set(len(self._index))
            return self._index

    # -- resolution ladder ----------------------------------------------

    def answer(self, query: Query, trace: TraceContext | None = None) -> ResultRow:
        """One ResultRow for ``query`` — warm, surrogate, or cold.

        ``trace`` is the request's root :class:`~repro.obs.TraceContext`
        (the server mints one per ``POST /query``, adopting an
        ``X-Trace-Id`` header when present).  With a ``trace_events``
        sink configured the resolution ladder runs inside a
        ``service.query`` span carrying the resolved tier; without a
        sink the context is accepted and ignored.
        """
        if self.trace_sink is None:
            return self._answer(query, None)
        ctx = trace if trace is not None else TraceContext.root()
        with span_timer(
            self.trace_sink, "service.query", ctx, rate=query.rate
        ) as timer:
            row = self._answer(query, ctx)
            timer.set(tier=row.meta.get("served", row.provenance))
            return row

    def _answer(self, query: Query, ctx: TraceContext | None) -> ResultRow:
        t0 = time.perf_counter()
        index = self._current_index()
        families = query_families(query.scenario)

        for namespace in _PREFERENCE:
            family = families.get(namespace)
            if family is None:
                continue
            row = index.exact(family, query.rate)
            if row is not None:
                return self._tag(row, "warm", t0)

        for namespace in _PREFERENCE:
            family = families.get(namespace)
            if family is None:
                continue
            fit = index.fit(family)
            if fit is None:
                continue
            latency = fit.predict(query.rate)
            if latency is None:
                continue
            if query.max_error is not None and fit.error_budget > query.max_error:
                continue
            return self._tag(
                self._surrogate_row(query, family, namespace, fit, latency), None, t0
            )

        row = self._cold_answer(query)
        if self.refine_enabled and query.refine:
            self._enqueue_refinement(query, ctx)
        return self._tag(row, "cold", t0)

    def _tag(self, row: ResultRow, served: str | None, t0: float) -> ResultRow:
        meta = dict(row.meta)
        if served is not None:
            meta["served"] = served
        elapsed = time.perf_counter() - t0
        meta["service_ms"] = round(elapsed * 1e3, 3)
        # Registry increments are atomic (one lock), so executor threads
        # and the refinement worker can tag concurrently without losing
        # counts — the failure mode of the old plain-dict ``+=``.
        tier = meta.get("served", "cold")
        self._c_queries.inc(tier=tier)
        self._h_latency.observe(elapsed, tier=tier)
        return replace(row, meta=meta)

    def _surrogate_row(
        self, query: Query, family: str, namespace: str, fit: SurrogateFit, latency: float
    ) -> ResultRow:
        scenario = query.scenario
        budget = fit.error_budget
        lo, hi = fit.rate_span
        return ResultRow(
            provenance="surrogate",
            spec=canonical_key("surrogate", {"family": family, "rate": query.rate}),
            topology=scenario.topology,
            order=scenario.order,
            workload=scenario.workload,
            message_length=scenario.message_length,
            total_vcs=scenario.total_vcs,
            engine="surrogate",
            rate=query.rate,
            latency=latency,
            latency_lo=latency * (1.0 - budget),
            latency_hi=latency * (1.0 + budget),
            saturated=False,
            algorithm=scenario.algorithm if namespace == "sim" else None,
            replications=1,
            seed=None,
            meta={
                "served": "surrogate",
                "error_budget": round(budget, 6),
                "source": namespace,
                "source_points": len(fit.points),
                "source_rate_min": lo,
                "source_rate_max": hi,
                "family": family,
            },
        )

    def _cold_answer(self, query: Query) -> ResultRow:
        """Instant analytical answer: model first, bound as last resort."""
        try:
            unit = query.scenario.model_unit(query.rate)
            return row_from_unit(unit, lookup(unit.kind)(unit.params))
        except ConfigurationError:
            # The model cannot represent this scenario (e.g. explicit
            # flows beyond MAX_FLOW_ORDER); the bound engine may still
            # give an always-sound worst-case answer.
            unit = query.scenario.bound_unit(query.rate)
            return row_from_unit(unit, lookup(unit.kind)(unit.params))

    # -- background refinement ------------------------------------------

    def _enqueue_refinement(self, query: Query, ctx: TraceContext | None = None) -> None:
        unit = query.scenario.sim_unit(query.rate, replications=query.replications)
        with self._lock:
            # setdefault dedupes: repeated cold queries of one point
            # refine it once; the first enqueuer's trace owns the unit's
            # refinement span.
            key = unit.key()
            self._queue.setdefault(key, unit)
            if ctx is not None and key not in self._trace_by_key:
                self._trace_by_key[key] = ctx.child()
            self._g_queue.set(len(self._queue))

    @property
    def pending_refinements(self) -> int:
        with self._lock:
            return len(self._queue)

    def refine(self, max_units: int | None = None) -> int:
        """Run queued refinement units, landing their rows in the store.

        Returns the number of units completed.  Safe to call from a
        background thread; queries keep answering from the existing
        index and pick up the refined rows on the next signature change.
        """
        with self._lock:
            keys = list(self._queue)
            if max_units is not None:
                keys = keys[:max_units]
            units = [self._queue.pop(k) for k in keys]
            ctxs = [self._trace_by_key.pop(k, None) for k in keys]
            self._g_queue.set(len(self._queue))
        if not units:
            return 0
        result = run_units(
            units,
            store=self.store,
            cache_dir=self.cache_dir,
            events=self.trace_sink,
        )
        if self.trace_sink is not None:
            # Unit spans parent under the query that enqueued them; the
            # start time is reconstructed as end - elapsed (durations
            # exact, ancestry from the parent links — refinement is
            # asynchronous, so time containment is not a goal).
            now = time.monotonic_ns()
            for key, unit, ctx, elapsed in zip(
                keys, units, ctxs, result.unit_elapsed_s
            ):
                if ctx is None:
                    continue
                dur_ns = int((elapsed or 0.0) * 1e9)
                emit_span(
                    self.trace_sink,
                    "refine.unit",
                    ctx,
                    now - dur_ns,
                    dur_ns,
                    key=key,
                    kind=unit.kind,
                )
        for unit in units:
            self._c_refined.inc(engine=unit.params["engine"])
        # One store row lands per refined unit (the campaign's append
        # path), so the append counter advances in lockstep.
        self._c_appends.inc(len(units))
        return len(units)

    # -- diagnostics ----------------------------------------------------

    @property
    def counters(self) -> dict[str, int]:
        """The historical counter dict, read from the registry.

        Kept for callers that predate the registry; mutating the
        returned dict has no effect on the engine's metrics.
        """
        tiers = {
            "warm_hits": "warm",
            "surrogate_hits": "surrogate",
            "cold_misses": "cold",
        }
        out = {name: int(self._c_queries.value(tier=t)) for name, t in tiers.items()}
        out["queries"] = sum(out.values())
        out["refined"] = int(
            sum(self._c_refined.value(engine=name) for name in available_engines())
        )
        return out

    @property
    def uptime_s(self) -> float:
        """Seconds since this engine was constructed (monotonic)."""
        return time.monotonic() - self._t_created

    def latency_summary(self) -> dict[str, dict[str, Any]]:
        """Per-tier service latency in milliseconds: count, p50, p95."""
        out: dict[str, dict[str, Any]] = {}
        for tier in ("warm", "surrogate", "cold"):
            n = self._h_latency.count(tier=tier)
            if not n:
                continue
            out[tier] = {
                "count": n,
                "p50_ms": round(self._h_latency.quantile(0.5, tier=tier) * 1e3, 3),
                "p95_ms": round(self._h_latency.quantile(0.95, tier=tier) * 1e3, 3),
            }
        return out

    def stats(self) -> dict[str, Any]:
        """Counters plus store/index shape, JSON-safe."""
        index = self._current_index()
        counters = self.counters
        latency = self.latency_summary()
        with self._lock:
            return {
                **counters,
                "pending_refinements": len(self._queue),
                "indexed_records": len(index),
                "families": len(index.family_sizes()),
                "store": str(self.store.path),
                "uptime_s": round(self.uptime_s, 3),
                "latency": latency,
            }

    def close(self) -> None:
        self.store.close()
        if self.trace_sink is not None and self._owns_sink:
            self.trace_sink.close()
