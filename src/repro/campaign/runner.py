"""Campaign execution: serial or process-pool, streaming store, resume.

:func:`run_campaign` takes an iterable of work units and runs them
serially in this process (``workers=1``) or on a
:class:`concurrent.futures.ProcessPoolExecutor` of ``workers``
processes, the only source of parallelism (docs/simulation.md,
"Parallelism model", says why).  Completed units stream to an optional
:class:`~repro.campaign.store.ResultStore` as they finish (completion
order), so killing a campaign loses at most the units in flight; a
``resume=True`` rerun loads the store first and skips every unit whose
content-hash key is already present.

Results are returned in unit order.  Freshly computed units yield rich
result objects (``ModelResult``, ``SimulationResult``, ...); units
satisfied from the store yield the persisted JSON payload dict instead —
campaigns that need rich objects should run without resume.
"""

from __future__ import annotations

import dataclasses
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from repro.campaign import cache
from repro.campaign.grid import WorkUnit
from repro.campaign.kinds import lookup
from repro.campaign.store import ResultStore, open_store
from repro.obs import EventSink, Heartbeat, TraceContext, emit_span
from repro.simulation.config import LEGACY_ENGINE
from repro.utils.exceptions import ConfigurationError

__all__ = ["CampaignResult", "run_campaign", "to_payload"]

#: Upper bound on futures kept in flight per pool worker.
_BACKLOG_PER_WORKER = 4


def to_payload(result: Any) -> Any:
    """JSON-safe view of a unit result (what the store persists)."""
    if hasattr(result, "as_dict"):
        return result.as_dict()
    if dataclasses.is_dataclass(result) and not isinstance(result, type):
        return dataclasses.asdict(result)
    if isinstance(result, (list, tuple)):
        return [to_payload(r) for r in result]
    return result


def _execute_unit(unit: WorkUnit, cache_dir: str | None) -> tuple[Any, float]:
    """Run one unit (top-level so pools can pickle it by reference)."""
    if cache_dir is not None:
        cache.configure(cache_dir)
    t0 = time.perf_counter()
    result = lookup(unit.kind)(unit.params)
    return result, time.perf_counter() - t0


def _pool_initializer(cache_dir: str | None) -> None:
    cache.configure(cache_dir)


@dataclass
class CampaignResult:
    """Outcome of one :func:`run_campaign` call."""

    units: list[WorkUnit]
    results: list[Any]
    computed: int
    skipped: int
    elapsed_s: float
    workers: int
    store_path: Path | None = None
    #: Per-unit wall time, aligned with ``units`` (None for store hits).
    unit_elapsed_s: list = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.units)

    @property
    def units_per_second(self) -> float:
        """Computed-unit throughput of this run."""
        if self.elapsed_s <= 0:
            return 0.0
        return self.computed / self.elapsed_s

    def summary(self) -> str:
        """One-line human summary."""
        parts = [
            f"{self.size} units",
            f"{self.computed} computed",
            f"{self.skipped} resumed from store",
            f"{self.elapsed_s:.2f}s",
            f"workers={self.workers}",
        ]
        if self.computed:
            parts.append(f"{self.units_per_second:.1f} units/s")
        return ", ".join(parts)


def _resolve_store(store: ResultStore | str | Path | None) -> tuple[ResultStore | None, bool]:
    if store is None:
        return None, False
    if isinstance(store, ResultStore):
        return store, False
    # Layout detection: directory-ish paths open sharded (concurrent
    # writers), ``.jsonl`` paths keep the historical flat layout.
    return open_store(store), True


def _resolve_events(events: EventSink | str | Path | None) -> tuple[EventSink | None, bool]:
    if events is None:
        return None, False
    if isinstance(events, EventSink):
        return events, False
    return EventSink(events), True


def _engine_named(unit: WorkUnit) -> WorkUnit:
    """``unit`` with its engine written into its params.

    Every stored ``sim`` record names its engine.  A ``sim`` unit whose
    params do not is a legacy object-engine unit (as in
    :func:`~repro.campaign.store.migrate_record`), so it is keyed, run
    and stored as ``engine="object"`` — and resumes from its own rows.
    """
    if unit.kind != "sim" or "engine" in unit.params:
        return unit
    return WorkUnit(unit.kind, {**unit.params, "engine": LEGACY_ENGINE})


def run_campaign(
    units: Iterable[WorkUnit],
    *,
    workers: int = 1,
    store: ResultStore | str | Path | None = None,
    resume: bool = False,
    cache_dir: str | Path | None = None,
    progress: Callable[[int, int], None] | None = None,
    events: EventSink | str | Path | None = None,
    heartbeat_s: float = 10.0,
    trace: TraceContext | None = None,
) -> CampaignResult:
    """Execute ``units``, streaming results to ``store`` as they finish.

    Parameters
    ----------
    workers:
        1 runs serially in-process; > 1 fans out over a pool of that
        many worker processes (full isolation, pickling per unit).
    store:
        A :class:`ResultStore`, a path to create one at, or None.
    resume:
        Skip units whose keys the store already holds (their stored
        payload becomes the result).
    cache_dir:
        Path-statistics disk cache shared by all workers.
    progress:
        Optional ``callback(done, total)`` fired after every unit.
    events:
        An :class:`~repro.obs.EventSink`, a JSONL path to create one at,
        or None.  When set, the campaign appends lifecycle telemetry —
        ``campaign_start``, per-unit ``unit_queued`` / ``unit_cached`` /
        ``unit_started`` / ``unit_finished``, periodic ``heartbeat``
        (every ``heartbeat_s`` seconds, with done/total counts and
        pool occupancy) and ``campaign_end`` — one JSON object per line
        (see ``docs/observability.md`` for the schema).  Works
        identically serially and on the process pool: every event is
        emitted from the coordinating thread or the heartbeat daemon,
        never from pool workers.
    trace:
        Optional :class:`~repro.obs.TraceContext` linking this campaign
        into a caller's trace (needs ``events``).  The run emits one
        ``campaign.run`` span plus a ``campaign.unit`` span per computed
        unit (children of the run span), and the ``campaign_start`` /
        ``campaign_end`` events carry the trace id.  Unit span start
        times are reconstructed as *end - elapsed* from the coordinating
        thread — durations are exact, ancestry comes from the parent
        links, never from time containment.
    """
    unit_list = [_engine_named(u) for u in units]
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    the_store, owns_store = _resolve_store(store)
    the_sink, owns_sink = _resolve_events(events)
    cache_dir = str(cache_dir) if cache_dir is not None else None

    keys = [u.key() for u in unit_list]
    results: list[Any] = [None] * len(unit_list)
    elapsed: list = [None] * len(unit_list)
    skipped = 0
    if the_store is not None and resume:
        stored = the_store.load()
        for i, key in enumerate(keys):
            record = stored.get(key)
            if record is not None:
                results[i] = record["result"]
                skipped += 1
                the_store.hits += 1
                if the_sink is not None:
                    the_sink.emit(
                        "unit_cached", key=key, kind=unit_list[i].kind
                    )

    # Identical units (same content key) are computed once and shared.
    pending: dict[str, list[int]] = {}
    for i, key in enumerate(keys):
        if the_store is not None and resume and results[i] is not None:
            continue
        pending.setdefault(key, []).append(i)

    done_count = skipped
    total = len(unit_list)
    #: Pool occupancy, written by the coordinating thread and
    #: read by the heartbeat daemon (a single int slot: benign race).
    occupancy = {"in_flight": 0}
    t0 = time.perf_counter()
    run_ctx = trace.child() if trace is not None and the_sink is not None else None
    run_t0_ns = time.monotonic_ns()

    if the_sink is not None:
        the_sink.emit(
            "campaign_start",
            units=total,
            distinct=len(pending),
            resumed=skipped,
            workers=workers,
            executor="processes" if workers > 1 else "serial",
            **({"trace_id": run_ctx.trace_id} if run_ctx is not None else {}),
        )
        for key, indices in pending.items():
            the_sink.emit(
                "unit_queued",
                key=key,
                kind=unit_list[indices[0]].kind,
                fanout=len(indices),
            )

    def _finish(key: str, result: Any, unit_elapsed: float) -> None:
        nonlocal done_count
        indices = pending[key]
        for i in indices:
            results[i] = result
            elapsed[i] = unit_elapsed
        rep = unit_list[indices[0]]
        if the_store is not None:
            the_store.append(key, rep.kind, rep.params, to_payload(result), unit_elapsed)
        done_count += len(indices)
        if the_sink is not None:
            the_sink.emit(
                "unit_finished",
                key=key,
                kind=rep.kind,
                elapsed_s=round(unit_elapsed, 6),
                fanout=len(indices),
                done=done_count,
                total=total,
                in_flight=occupancy["in_flight"],
            )
            if run_ctx is not None:
                dur_ns = int(unit_elapsed * 1e9)
                emit_span(
                    the_sink,
                    "campaign.unit",
                    run_ctx.child(),
                    time.monotonic_ns() - dur_ns,
                    dur_ns,
                    key=key,
                    kind=rep.kind,
                )
        if progress is not None:
            progress(done_count, total)

    heartbeat = None
    if the_sink is not None:
        heartbeat = Heartbeat(
            the_sink,
            heartbeat_s,
            fields=lambda: {
                "done": done_count,
                "total": total,
                "in_flight": occupancy["in_flight"],
            },
        ).start()
    try:
        if workers == 1:
            for key in list(pending):
                unit = unit_list[pending[key][0]]
                occupancy["in_flight"] = 1
                if the_sink is not None:
                    the_sink.emit("unit_started", key=key, kind=unit.kind)
                result, unit_elapsed = _execute_unit(unit, cache_dir)
                occupancy["in_flight"] = 0
                _finish(key, result, unit_elapsed)
        else:
            _run_pool(
                unit_list, pending, workers, cache_dir, _finish,
                sink=the_sink, occupancy=occupancy,
            )
    finally:
        if heartbeat is not None:
            heartbeat.stop()
        if the_sink is not None:
            if run_ctx is not None:
                emit_span(
                    the_sink,
                    "campaign.run",
                    run_ctx,
                    run_t0_ns,
                    time.monotonic_ns() - run_t0_ns,
                    units=total,
                    computed=total - skipped,
                )
            the_sink.emit(
                "campaign_end",
                computed=total - skipped,
                resumed=skipped,
                elapsed_s=round(time.perf_counter() - t0, 6),
                **({"trace_id": run_ctx.trace_id} if run_ctx is not None else {}),
            )
            if owns_sink:
                the_sink.close()
        if the_store is not None and owns_store:
            the_store.close()

    return CampaignResult(
        units=unit_list,
        results=results,
        computed=total - skipped,
        skipped=skipped,
        elapsed_s=time.perf_counter() - t0,
        workers=workers,
        store_path=the_store.path if the_store is not None else None,
        unit_elapsed_s=elapsed,
    )


def _run_pool(
    unit_list: Sequence[WorkUnit],
    pending: dict[str, list[int]],
    workers: int,
    cache_dir: str | None,
    finish: Callable[[str, Any, float], None],
    sink: EventSink | None = None,
    occupancy: dict | None = None,
) -> None:
    """Process pool with a bounded in-flight window.

    Bounding the submission backlog keeps memory flat on huge grids and
    lets results stream to the store (and progress callback) in
    completion order rather than submission order.  ``finish`` always
    runs here in the caller's thread, so the store append and progress
    callback never need their own locking.
    """
    queue = list(pending)
    with ProcessPoolExecutor(
        max_workers=workers,
        initializer=_pool_initializer,
        initargs=(cache_dir,),
    ) as pool:
        in_flight = {}
        max_in_flight = workers * _BACKLOG_PER_WORKER
        cursor = 0
        while cursor < len(queue) or in_flight:
            while cursor < len(queue) and len(in_flight) < max_in_flight:
                key = queue[cursor]
                unit = unit_list[pending[key][0]]
                in_flight[pool.submit(_execute_unit, unit, cache_dir)] = key
                cursor += 1
                if occupancy is not None:
                    occupancy["in_flight"] = len(in_flight)
                if sink is not None:
                    sink.emit(
                        "unit_started",
                        key=key,
                        kind=unit.kind,
                        in_flight=len(in_flight),
                    )
            done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
            for future in done:
                key = in_flight.pop(future)
                if occupancy is not None:
                    occupancy["in_flight"] = len(in_flight)
                result, unit_elapsed = future.result()
                finish(key, result, unit_elapsed)
