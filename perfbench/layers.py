"""Which program functions are traced, and the per-layer metrics they give.

Every layer is measured at the boundary of its public functions (plus
the work-unit kinds of the campaign registry), wrapped from outside by
:class:`perfbench.tracer.Tracer`.  ``.s`` metrics are inclusive time in
the layer's calls; ``.self_s`` metrics subtract nested traced calls.
Kernel phases come from the simulator's own ``profile=True`` timing
(``SimulationResult.phase_ns``), which the traced run switches on.
"""

from __future__ import annotations

import threading
import time

from perfbench.tracer import Span, Tracer, covered_ns, self_ns

__all__ = ["LAYER_METRICS", "LayerProbe"]

#: Every per-layer metric name with its unit, in report order.
LAYER_METRICS: dict[str, str] = {
    "core.evaluate.calls": "count",
    "core.evaluate.s": "s",
    "core.saturation.s": "s",
    "core.pathstats.s": "s",
    "workloads.flow_profile.calls": "count",
    "workloads.flow_profile.s": "s",
    "workloads.flow_profile.hit_ratio": "ratio",
    "simulation.object.run.calls": "count",
    "simulation.object.run.s": "s",
    "simulation.array.init.s": "s",
    "simulation.array.run.s": "s",
    "simulation.phase.generation.s": "s",
    "simulation.phase.activation.s": "s",
    "simulation.phase.route.s": "s",
    "simulation.phase.complete.s": "s",
    "simulation.phase.other.s": "s",
    "simulation.phase.other.share": "ratio",
    "simulation.array.py_steps_per_kcycle": "1/kcycle",
    "campaign.run.self_s": "s",
    "campaign.unit.calls": "count",
    "campaign.unit.s": "s",
    "campaign.fused.groups": "count",
    "campaign.fused.s": "s",
    "campaign.store.append.calls": "count",
    "campaign.store.append.s": "s",
    "campaign.store.load.s": "s",
    "service.answer.warm.s": "s",
    "service.answer.surrogate.s": "s",
    "service.answer.cold.s": "s",
    "service.http.s": "s",
    "service.index.calls": "count",
    "service.index.s": "s",
    "service.refine.s": "s",
    "service.refine.wait_s": "s",
    "api.sweep.self_s": "s",
    "unattributed.share": "ratio",
    "validation.model_err_pct": "%",
}

_PHASES = ("generation", "activation", "route", "complete", "other")


class LayerProbe:
    """Installs the layer wraps and turns their spans into metrics."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.phase_ns = {name: 0 for name in (*_PHASES, "total", "cycles")}
        self.refine_waits: list[float] = []
        self._enqueued: dict[tuple, float] = {}
        self._lock = threading.Lock()

    # -- hooks ----------------------------------------------------------

    def _force_profile(self, bound) -> None:
        bound.arguments["profile"] = True

    def _add_phases(self, args, kwargs, results) -> None:
        phases = results[0].phase_ns if results else None
        if phases:
            with self._lock:
                for key in self.phase_ns:
                    self.phase_ns[key] += int(phases.get(key, 0))

    def _note_enqueue(self, args, kwargs, row) -> None:
        query = args[1] if len(args) > 1 else kwargs["query"]
        if row.meta.get("served") == "cold" and query.refine:
            key = (query.scenario.fingerprint(), query.rate)
            with self._lock:
                self._enqueued.setdefault(key, time.perf_counter())

    def _note_refine_entry(self, bound) -> None:
        now = time.perf_counter()
        with self._lock:
            self.refine_waits.extend(now - t for t in self._enqueued.values())
            self._enqueued.clear()

    # -- install --------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced layer; raises if a layer has moved.

        Every ``repro`` module is imported first, so that modules which
        import a traced function by name hold a binding to patch (and to
        restore) rather than picking up the wrapper later.
        """
        import pkgutil

        import repro

        for module in pkgutil.walk_packages(repro.__path__, "repro."):
            __import__(module.name)
        from repro.api.scenario import Scenario
        from repro.campaign import kinds, runner
        from repro.campaign.store import ResultStore, ShardedResultStore
        from repro.core import pathstats
        from repro.core.model import _WormholeLatencyModel
        from repro.service.client import ServiceClient
        from repro.service.engine import QueryEngine
        from repro.service.surrogate import SurrogateIndex
        from repro.simulation.engine import WormholeSimulator
        from repro.simulation.kernels import ArraySimulator
        from repro.workloads import flows

        t = self.tracer
        t.patch_method(_WormholeLatencyModel, "evaluate", "core.evaluate")
        t.patch_method(_WormholeLatencyModel, "saturation_search", "core.saturation")
        t.patch_method(WormholeSimulator, "run", "simulation.object.run")
        t.patch_method(
            ArraySimulator, "__init__", "simulation.array.init", before=self._force_profile
        )
        t.patch_method(ArraySimulator, "run", "simulation.array.run", after=self._add_phases)
        t.patch_method(ArraySimulator, "step", "simulation.array.py_steps", count_only=True)
        t.patch_method(Scenario, "sweep", "api.sweep")
        for cls in (ResultStore, ShardedResultStore):
            t.patch_method(cls, "append", "campaign.store.append")
            t.patch_method(cls, "load", "campaign.store.load")
        t.patch_method(
            QueryEngine,
            "answer",
            "service.answer",
            rename=lambda row: f"service.answer.{row.meta.get('served', 'cold')}",
            adopt="service.http",
            after=self._note_enqueue,
        )
        t.patch_method(
            QueryEngine, "refine", "service.refine", before=self._note_refine_entry
        )
        t.patch_method(SurrogateIndex, "__init__", "service.index")
        t.patch_method(ServiceClient, "query", "service.http")
        functions = [
            (pathstats.cached_path_statistics, "core.pathstats"),
            (flows.cached_flow_profile, "workloads.cached_flow_profile"),
            (flows.flow_profile, "workloads.flow_profile"),
            (runner.run_campaign, "campaign.run"),
            (kinds.run_units_fused, "campaign.fused"),
        ]
        functions += [(fn, "campaign.unit") for fn in set(kinds.KINDS.values())]
        for fn, name in functions:
            if not t.patch_function(fn, name):
                t.uninstall()
                raise RuntimeError(f"traced layer {name} ({fn!r}) has no binding to wrap")

    def uninstall(self) -> None:
        self.tracer.uninstall()

    # -- metrics --------------------------------------------------------

    def metrics(self, setup: tuple[int, int], outcomes: list) -> dict[str, float]:
        """Per-layer metrics: the traced set-up plus one average traced run.

        ``setup`` is the ``perf_counter_ns`` interval of the traced set-up
        and ``outcomes`` are the traced runs (their ``window`` is the
        interval of the workflow).  Spans starting in ``setup`` count
        once and spans starting in a run window count ``1 / len(outcomes)``;
        anything else (per-run preparation outside the workflow) is left
        out.  ``unattributed.share`` is the part of the run windows that
        no span covers.  ``validation.model_err_pct`` is the runs' mean
        model-vs-sim error: it varies too much between seeds on
        ``figure1-a`` to carry an end-to-end regression bound.
        """
        windows = [o.window for o in outcomes]
        runs = len(windows)

        def in_setup(s: Span) -> bool:
            return setup[0] <= s.start < setup[1]

        def in_run(s: Span) -> bool:
            return any(lo <= s.start < hi for lo, hi in windows)

        spans = list(self.tracer.spans)
        weights = {s.id: 1.0 if in_setup(s) else 1.0 / runs if in_run(s) else 0.0 for s in spans}
        selfs = self_ns(spans)
        by_id = {s.id: s for s in spans}

        def named(name: str) -> list[Span]:
            return [s for s in spans if s.name == name and weights[s.id]]

        def count(selected: list[Span]) -> float:
            return sum(map(in_setup, selected)) + sum(map(in_run, selected)) / runs

        def calls(name: str) -> float:
            return count(named(name))

        def incl(name: str) -> float:
            return sum(weights[s.id] * s.dur for s in named(name)) / 1e9

        def own(name: str) -> float:
            return sum(weights[s.id] * selfs[s.id] for s in named(name)) / 1e9

        def under(span: Span, ancestor: str) -> bool:
            parent = span.parent
            while parent is not None:
                if by_id[parent].name == ancestor:
                    return True
                parent = by_id[parent].parent
            return False

        lookups = calls("workloads.cached_flow_profile")
        builds = calls("workloads.flow_profile")
        phases = {key: value / runs for key, value in self.phase_ns.items()}
        steps = self.tracer.counts.get("simulation.array.py_steps", 0) / runs
        wall = sum(hi - lo for lo, hi in windows)
        intervals = [(s.start, s.end) for s in spans]
        covered = sum(covered_ns(intervals, lo, hi) for lo, hi in windows)
        out: dict[str, float] = {
            "core.evaluate.calls": calls("core.evaluate"),
            "core.evaluate.s": incl("core.evaluate"),
            "core.saturation.s": incl("core.saturation"),
            "core.pathstats.s": incl("core.pathstats"),
            "workloads.flow_profile.calls": builds,
            "workloads.flow_profile.s": incl("workloads.flow_profile"),
            "workloads.flow_profile.hit_ratio": 1.0 - builds / lookups if lookups else 0.0,
            "simulation.object.run.calls": calls("simulation.object.run"),
            "simulation.object.run.s": incl("simulation.object.run"),
            "simulation.array.init.s": incl("simulation.array.init"),
            "simulation.array.run.s": incl("simulation.array.run"),
        }
        for phase in _PHASES:
            out[f"simulation.phase.{phase}.s"] = phases[phase] / 1e9
        out["simulation.phase.other.share"] = (
            phases["other"] / phases["total"] if phases["total"] else 0.0
        )
        out["simulation.array.py_steps_per_kcycle"] = (
            steps / (phases["cycles"] / 1000) if phases["cycles"] else 0.0
        )
        out.update(
            {
                "campaign.run.self_s": own("campaign.run"),
                "campaign.unit.calls": calls("campaign.unit"),
                "campaign.unit.s": incl("campaign.unit"),
                "campaign.fused.groups": count(
                    [s for s in named("simulation.array.init") if under(s, "campaign.fused")]
                ),
                "campaign.fused.s": incl("campaign.fused"),
                "campaign.store.append.calls": calls("campaign.store.append"),
                "campaign.store.append.s": incl("campaign.store.append"),
                "campaign.store.load.s": incl("campaign.store.load"),
                "service.answer.warm.s": incl("service.answer.warm"),
                "service.answer.surrogate.s": incl("service.answer.surrogate"),
                "service.answer.cold.s": incl("service.answer.cold"),
                "service.http.s": own("service.http"),
                "service.index.calls": calls("service.index"),
                "service.index.s": incl("service.index"),
                "service.refine.s": incl("service.refine"),
                "service.refine.wait_s": (
                    sum(self.refine_waits) / len(self.refine_waits)
                    if self.refine_waits
                    else 0.0
                ),
                "api.sweep.self_s": own("api.sweep"),
                "unattributed.share": 1.0 - covered / wall if wall else 0.0,
                "validation.model_err_pct": sum(o.model_err_pct for o in outcomes) / runs,
            }
        )
        return out

    def self_time_table(self, windows: list[tuple[int, int]]) -> list[tuple[str, int, float, float]]:
        """(layer, calls, self seconds, share of wall) for spans in ``windows``."""
        spans = [
            s for s in self.tracer.spans if any(lo <= s.start < hi for lo, hi in windows)
        ]
        selfs = self_ns(spans)
        wall = sum(hi - lo for lo, hi in windows) or 1
        rows: dict[str, list] = {}
        for s in spans:
            row = rows.setdefault(s.name, [0, 0])
            row[0] += 1
            row[1] += selfs[s.id]
        return sorted(
            ((name, n, ns / 1e9, ns / wall) for name, (n, ns) in rows.items()),
            key=lambda r: -r[2],
        )
