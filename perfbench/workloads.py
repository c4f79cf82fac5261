"""The benchmark's four workloads: set-up, one measured run, output checks.

Each workload drives the program through its public API in this one
process (no ``jobs``/``workers``/``threads``) and returns an
:class:`Outcome` holding what the run produced.  ``check`` functions
look only at an outcome, so a corrupted outcome trips them in tests.

Terms shared by every workload:

* an *operating point* is one (scenario, rate) whose latency the run
  answers; a *simulated point* is one answered by simulation;
* a *query* is one request a user waits on: an HTTP query on
  ``service-mixed``, the whole workflow call on the batch workloads
  (every point arrives when the call returns);
* a *cold answer* is the analytical model's answer at a point, timed
  through ``Scenario.model`` on the batch workloads and as the service's
  cold tier on ``service-mixed``.

Sizes are dataclasses so tests can run every workload tiny.
"""

from __future__ import annotations

import math
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

__all__ = ["Outcome", "Point", "WORKLOADS", "Workload"]


@dataclass(frozen=True)
class Point:
    """One simulated operating point, as its simulated statistics."""

    label: str
    rate: float
    replications: int
    rep_cycles: int
    cycles_run: int
    messages_measured: int
    latency: float
    saturated: bool

    def fingerprint(self) -> list:
        """Exact, JSON-safe statistics (``repr`` keeps every float digit)."""
        return [
            self.label,
            repr(self.rate),
            self.replications,
            self.cycles_run,
            self.messages_measured,
            repr(self.latency),
            self.saturated,
        ]


@dataclass
class Outcome:
    """What one measured run of a workload produced."""

    wall_s: float
    points: list[Point]
    sim_points: int
    answered: int
    model_err_pct: float
    query_ms: list[float]
    cold_ms: list[float]  # every cold-answer sample of the run so far
    refine_s: float
    window: tuple[int, int]  # perf_counter_ns interval of the workflow
    data: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    """A named workload and its full-size and tiny sizes.

    ``setup(seed, size, workdir) -> ctx`` prepares everything a fresh
    process needs before the workflow call; ``run(ctx, seed, size)`` is
    one measured run; ``check(outcome)`` lists (check, passed) pairs.
    ``workdir`` is a scratch directory the workload may write under.
    ``repeats_exactly`` says whether every run of one seed simulates the
    same points (so their statistics must match bit for bit).
    """

    name: str
    setup: Callable[..., Any]
    run: Callable[..., Outcome]
    check: Callable[[Outcome], list[tuple[str, bool]]]
    size: Any
    tiny: Any
    repeats_exactly: bool = True


def _finite(x: float) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def _rel_err_pct(model: float, sim: float) -> float:
    return 100.0 * abs(model - sim) / sim


def _time_cold(ctx: dict, scenarios, rates, budget_s: float) -> list[float]:
    """Best-so-far milliseconds of a ``Scenario.model`` answer at each point.

    The host's speed shifts by up to 2x for seconds to minutes, so each
    point keeps the fastest answer seen in short slices taken before and
    after every workflow run (each slice repeats for ``budget_s``, at
    least once); the p50 is then taken over points, whose cost differs
    several-fold (the model's fixed point converges slower near
    saturation).  Returns every point's best so far in this run.
    """
    best = ctx.setdefault("cold_best", {})
    deadline = time.perf_counter() + budget_s
    while True:
        for i, scenario in enumerate(scenarios):
            for rate in rates:
                t0 = time.perf_counter()
                scenario.model(rate)
                elapsed = (time.perf_counter() - t0) * 1e3
                best[i, rate] = min(best.get((i, rate), math.inf), elapsed)
        if time.perf_counter() >= deadline:
            return list(best.values())


# -- figure1-a ------------------------------------------------------------


@dataclass(frozen=True)
class Figure1Size:
    cold_budget_s: float = 0.3


def figure1_setup(seed: int, size: Figure1Size, workdir: Path) -> dict:
    from repro.experiments.figure1 import FIGURE1_PANELS, load_grid, panel_units
    from repro.simulation.spec import SimSpec

    from repro.api.scenario import Scenario

    panel = FIGURE1_PANELS["a"]
    rates = load_grid(panel)
    units = panel_units(panel, rates, quality="smoke", seed=seed)
    sim = next(u for u in units if u.kind == "sim")
    SimSpec.from_params(sim.params).build()
    scenarios = [
        Scenario(order=panel.n, message_length=m, total_vcs=panel.total_vcs, quality="smoke")
        for m in panel.message_lengths
    ]
    return {"rates": rates, "scenarios": scenarios}


def figure1_run(ctx: dict, seed: int, size: Figure1Size) -> Outcome:
    from repro.core.model import StarLatencyModel
    from repro.experiments.figure1 import reproduce_panel

    _time_cold(ctx, ctx["scenarios"], ctx["rates"], size.cold_budget_s)
    t0 = time.perf_counter_ns()
    series = reproduce_panel("a", quality="smoke", seed=seed)
    t1 = time.perf_counter_ns()
    wall = (t1 - t0) / 1e9
    points, errors = [], []
    for s in series:
        comparison = s.comparison()
        errors += [
            p.relative_error for p in comparison.points if not math.isnan(p.relative_error)
        ]
        for rate, r in zip(s.rates, s.sim):
            points.append(
                Point(
                    f"M{s.message_length}",
                    rate,
                    1,
                    r.cycles_run,
                    r.cycles_run,
                    r.messages_measured,
                    r.mean_latency,
                    r.saturated,
                )
            )
    if "saturation" not in ctx:
        panel = series[0].panel
        ctx["saturation"] = {
            s.message_length: StarLatencyModel(
                panel.n, s.message_length, panel.total_vcs
            ).saturation_rate()
            for s in series
        }
    return Outcome(
        wall_s=wall,
        points=points,
        sim_points=len(points),
        answered=sum(2 * len(s.rates) for s in series),
        model_err_pct=100.0 * sum(errors) / len(errors) if errors else math.nan,
        query_ms=[wall * 1e3],
        cold_ms=_time_cold(ctx, ctx["scenarios"], ctx["rates"], size.cold_budget_s),
        refine_s=wall,
        window=(t0, t1),
        data={"series": series, "saturation": ctx["saturation"]},
    )


def figure1_check(outcome: Outcome) -> list[tuple[str, bool]]:
    """The Figure-1 shape and accuracy gates, plus low-load stability."""
    checks = []
    for s in outcome.data["series"]:
        m = s.message_length
        stable = [r.latency for r in s.model if not r.saturated]
        checks.append((f"M{m} model latency rises with load", stable == sorted(stable)))
        checks.append((f"M{m} model has stable points", bool(stable)))
        comparison = s.comparison()
        if comparison.stable_points:
            checks.append(
                (f"M{m} model-vs-sim mean error < 25%", comparison.mean_relative_error < 0.25)
            )
        sat = outcome.data["saturation"][m]
        for rate, r in zip(s.rates, s.sim):
            checks.append(
                (f"M{m} sim at {rate} measured", r.messages_measured > 0 and _finite(r.mean_latency))
            )
            if rate / sat < 0.6:
                checks.append((f"M{m} sim at {rate} (< 0.6 load) not saturated", not r.saturated))
    return checks


# -- kernel-s5 ------------------------------------------------------------


@dataclass(frozen=True)
class KernelSize:
    replications: int = 16
    warmup: int = 2_000
    measure: int = 20_000
    drain: int = 10_000
    cold_budget_s: float = 0.3


def kernel_setup(seed: int, size: KernelSize, workdir: Path) -> dict:
    from repro.api.scenario import Scenario
    from repro.simulation.ckernel import load_bundle
    from repro.simulation.kernels import ArraySimulator

    load_bundle()
    scenario = Scenario(
        order=5,
        message_length=32,
        total_vcs=6,
        engine="array",
        warmup_cycles=size.warmup,
        measure_cycles=size.measure,
        drain_cycles=size.drain,
        seed=seed,
    )
    rate = round(0.4 * scenario.saturation_rate(), 6)
    topology, algorithm, config = scenario.sim_spec(rate).build()
    seeds = tuple(seed + i for i in range(size.replications))
    ArraySimulator(topology, algorithm, config, seeds=seeds)
    return {"scenario": scenario, "rate": rate, "sim": (topology, algorithm, config)}


def kernel_run(ctx: dict, seed: int, size: KernelSize) -> Outcome:
    from repro.simulation.backends import simulate_batch

    topology, algorithm, config = ctx["sim"]
    _time_cold(ctx, [ctx["scenario"]], [ctx["rate"]], size.cold_budget_s)
    t0 = time.perf_counter_ns()
    results = simulate_batch(
        topology, algorithm, config, replications=size.replications, engine="array"
    )
    t1 = time.perf_counter_ns()
    wall = (t1 - t0) / 1e9
    means = [r.mean_latency for r in results]
    pooled = sum(means) / len(means)
    model = ctx["scenario"].model(ctx["rate"])[0].latency
    points = [
        Point(
            f"seed{seed + i}",
            ctx["rate"],
            1,
            r.cycles_run,
            r.cycles_run,
            r.messages_measured,
            r.mean_latency,
            r.saturated,
        )
        for i, r in enumerate(results)
    ]
    return Outcome(
        wall_s=wall,
        points=points,
        sim_points=1,
        answered=1,
        model_err_pct=_rel_err_pct(model, pooled),
        query_ms=[wall * 1e3],
        cold_ms=_time_cold(ctx, [ctx["scenario"]], [ctx["rate"]], size.cold_budget_s),
        refine_s=wall,
        window=(t0, t1),
        data={"pooled": pooled},
    )


def kernel_check(outcome: Outcome) -> list[tuple[str, bool]]:
    checks = [("pooled mean latency finite", _finite(outcome.data["pooled"]))]
    for p in outcome.points:
        checks.append((f"{p.label} measured", p.messages_measured > 0 and _finite(p.latency)))
        checks.append((f"{p.label} not saturated", not p.saturated))
    return checks


# -- sweep-s4 -------------------------------------------------------------


@dataclass(frozen=True)
class SweepSize:
    loads: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
    replications: int = 8
    quality: str = "full"
    cold_budget_s: float = 0.3


def sweep_setup(seed: int, size: SweepSize, workdir: Path) -> dict:
    from repro.api.scenario import Scenario
    from repro.simulation.ckernel import load_bundle
    from repro.simulation.kernels import ArraySimulator

    load_bundle()
    scenario = Scenario(
        order=4, message_length=32, total_vcs=6, engine="array", quality=size.quality, seed=seed
    )
    rates = scenario.rate_ladder(size.loads)
    topology, algorithm, config = scenario.sim_spec(rates[0]).build()
    seeds = tuple(seed + i for i in range(size.replications))
    ArraySimulator(topology, algorithm, config, seeds=seeds)
    return {"scenario": scenario, "rates": rates}


def sweep_run(ctx: dict, seed: int, size: SweepSize) -> Outcome:
    scenario, rates = ctx["scenario"], ctx["rates"]
    _time_cold(ctx, [scenario], rates, size.cold_budget_s)
    t0 = time.perf_counter_ns()
    rows = scenario.sweep(
        {"rate": rates, "engine": ["model", "array"]}, replications=size.replications
    )
    t1 = time.perf_counter_ns()
    wall = (t1 - t0) / 1e9
    model = {r.rate: r for r in rows if r.provenance == "model"}
    sims = [r for r in rows if r.provenance == "sim"]
    points = [
        Point(
            "array",
            r.rate,
            r.replications,
            r.replications * int(r.meta["cycles_run"]),
            int(r.meta["cycles_run"]),
            int(r.meta["messages_measured"]),
            r.latency,
            r.saturated,
        )
        for r in sims
    ]
    errors = [
        _rel_err_pct(model[r.rate].latency, r.latency)
        for r in sims
        if r.rate in model and not r.saturated and not model[r.rate].saturated
    ]
    return Outcome(
        wall_s=wall,
        points=points,
        sim_points=len(points),
        answered=len(rows),
        model_err_pct=sum(errors) / len(errors) if errors else math.nan,
        query_ms=[wall * 1e3],
        cold_ms=_time_cold(ctx, [scenario], rates, size.cold_budget_s),
        refine_s=wall,
        window=(t0, t1),
        data={"rows": list(rows), "rates": rates},
    )


def sweep_check(outcome: Outcome) -> list[tuple[str, bool]]:
    rows = outcome.data["rows"]
    checks = [("one model and one sim row per rate", len(rows) == 2 * len(outcome.data["rates"]))]
    for r in rows:
        checks.append((f"{r.provenance} at {r.rate} finite", _finite(r.latency)))
        checks.append((f"{r.provenance} at {r.rate} not saturated", not r.saturated))
    return checks


# -- service-mixed --------------------------------------------------------


@dataclass(frozen=True)
class ServiceSize:
    reads: int = 500
    burst_at: int = 100
    poll_every: int = 10
    cold_loads: tuple[float, ...] = (0.2, 0.3, 0.4, 0.5)
    cold_quality: str = "full"
    ladder_points: int = 14


#: S4 hotspot(fraction=0.2) saturates at ~0.0103 msg/cycle/node in the
#: model for any hot node (the star graph is vertex-transitive), so cold
#: rates are fixed fractions of it and need no per-query model solve.
_S4_HOTSPOT_SATURATION = 0.0103

#: An episode whose refinement has not finished by then fails its check.
_EPISODE_TIMEOUT_S = 120.0


class _Service:
    """A seeded store behind a live server and one client."""

    def __init__(self, workdir: Path, size: ServiceSize):
        from repro.api.scenario import Scenario
        from repro.service.client import ServiceClient
        from repro.service.engine import QueryEngine
        from repro.service.server import ServiceServer

        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.ladder = Scenario(order=5, message_length=32, total_vcs=6, quality="smoke")
        fractions = tuple(0.15 + 0.05 * i for i in range(size.ladder_points))
        rates = self.ladder.rate_ladder(fractions)
        rows = self.ladder.sweep({"rate": rates}, store=str(workdir / "store.jsonl"))
        self.warm = {r.rate: r.latency for r in rows}
        self.engine = QueryEngine(workdir / "store.jsonl")
        self.server = ServiceServer(self.engine).start()
        self.client = ServiceClient(self.server.url)
        self.client.health()

    def close(self) -> None:
        self.server.close()
        self.engine.close()
        shutil.rmtree(self.workdir, ignore_errors=True)


def service_setup(seed: int, size: ServiceSize, workdir: Path) -> dict:
    svc = _Service(workdir / "setup", size)
    svc.close()
    return {"workdir": workdir, "episodes": 0, "cold_ms": []}


def service_run(ctx: dict, seed: int, size: ServiceSize) -> Outcome:
    index = ctx["episodes"]
    ctx["episodes"] += 1
    rng = random.Random(f"service-mixed:{seed}:{index}")
    svc = _Service(ctx["workdir"] / f"episode-{index}", size)
    try:
        outcome = _service_episode(svc, rng, seed, size)
    finally:
        svc.close()
    ctx["cold_ms"] += outcome.cold_ms
    outcome.cold_ms = list(ctx["cold_ms"])
    return outcome


def _service_episode(svc: _Service, rng: random.Random, seed: int, size: ServiceSize) -> Outcome:
    from repro.api.scenario import Scenario

    ladder = sorted(svc.warm)
    mids = list(zip(ladder, ladder[1:]))
    hot = Scenario(
        order=4,
        message_length=32,
        total_vcs=6,
        workload=f"hotspot(hotspot={rng.randrange(24)},fraction=0.2)",
        quality=size.cold_quality,
        seed=seed,
    )
    cold_rates = [round(f * _S4_HOTSPOT_SATURATION, 6) for f in size.cold_loads]
    client = svc.client
    log: list[tuple] = []  # (kind, rate, expected, tier, latency, provenance)
    reads_ms, cold_ms = [], []
    cold_model: dict[float, float] = {}
    final: dict[float, Any] = {}
    pending: list[float] = []
    t_burst = t_warm = None
    n_reads = requests = 0
    timed_out = False
    w0 = time.perf_counter_ns()
    t_start = time.perf_counter()
    while True:
        if requests == size.burst_at:
            t_burst = time.perf_counter()
            for rate in cold_rates:
                t0 = time.perf_counter()
                row = client.query(hot, rate)
                cold_ms.append((time.perf_counter() - t0) * 1e3)
                log.append(("cold", rate, None, row.meta.get("served"), row.latency, row.provenance))
                cold_model[rate] = row.latency
                requests += 1
            pending = list(cold_rates)
        elif pending and requests % size.poll_every == 0:
            rate = pending[0]
            t0 = time.perf_counter()
            row = client.query(hot, rate, refine=False)
            tier = row.meta.get("served")
            if tier == "cold":
                cold_ms.append((time.perf_counter() - t0) * 1e3)
            log.append(("poll", rate, None, tier, row.latency, row.provenance))
            pending.pop(0)
            if tier == "warm":
                final[rate] = row
                if not pending:
                    t_warm = time.perf_counter()
            else:
                pending.append(rate)
            requests += 1
        else:
            if rng.random() < 0.5:
                rate = rng.choice(ladder)
                expected: Any = ("warm", svc.warm[rate])
            else:
                lo, hi = rng.choice(mids)
                rate = 0.5 * (lo + hi)
                expected = ("surrogate", (svc.warm[lo], svc.warm[hi]))
            t0 = time.perf_counter()
            row = client.query(svc.ladder, rate, refine=False)
            reads_ms.append((time.perf_counter() - t0) * 1e3)
            log.append(("read", rate, expected, row.meta.get("served"), row.latency, row.provenance))
            n_reads += 1
            requests += 1
        if t_burst is not None and not pending and n_reads >= size.reads:
            break
        if time.perf_counter() - t_start > _EPISODE_TIMEOUT_S:
            timed_out = True
            break
    w1 = time.perf_counter_ns()
    wall = (w1 - w0) / 1e9
    points = [
        Point(
            "hotspot",
            rate,
            1,
            int(row.meta["cycles_run"]),
            int(row.meta["cycles_run"]),
            int(row.meta["messages_measured"]),
            row.latency,
            row.saturated,
        )
        for rate, row in sorted(final.items())
    ]
    errors = [_rel_err_pct(cold_model[r], row.latency) for r, row in final.items()]
    return Outcome(
        wall_s=wall,
        points=points,
        sim_points=len(points),
        answered=requests,
        model_err_pct=sum(errors) / len(errors) if errors else math.nan,
        query_ms=reads_ms,
        cold_ms=cold_ms,
        refine_s=(t_warm if t_warm is not None else time.perf_counter()) - t_burst,
        window=(w0, w1),
        data={
            "log": log,
            "cold_rates": cold_rates,
            "final": {r: (row.provenance, row.latency) for r, row in final.items()},
            "timed_out": timed_out,
        },
    )


#: Stored model latencies are rounded to 4 decimals.
_STORE_TOL = 1e-4


def service_check(outcome: Outcome) -> list[tuple[str, bool]]:
    """Every query got its expected tier and value; every cold point ended warm."""
    checks = [("refinement finished before the timeout", not outcome.data["timed_out"])]
    for kind, rate, expected, tier, latency, provenance in outcome.data["log"]:
        if kind == "read" and expected[0] == "warm":
            ok = tier == "warm" and abs(latency - expected[1]) <= _STORE_TOL
        elif kind == "read":
            lo, hi = sorted(expected[1])
            ok = (
                tier == "surrogate"
                and provenance == "surrogate"
                and lo - _STORE_TOL <= latency <= hi + _STORE_TOL
            )
        elif kind == "cold":
            ok = tier == "cold" and _finite(latency)
        else:
            ok = tier in ("cold", "surrogate", "warm") and _finite(latency)
        checks.append((f"{kind} at {rate} answered {tier}", ok))
    final = outcome.data["final"]
    for rate in outcome.data["cold_rates"]:
        provenance, latency = final.get(rate, (None, math.nan))
        checks.append((f"cold point {rate} ends warm with a sim row", provenance == "sim" and _finite(latency)))
    return checks


# -- registry -------------------------------------------------------------


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "figure1-a",
            figure1_setup,
            figure1_run,
            figure1_check,
            Figure1Size(),
            Figure1Size(cold_budget_s=0.05),
        ),
        Workload(
            "kernel-s5",
            kernel_setup,
            kernel_run,
            kernel_check,
            KernelSize(),
            KernelSize(replications=2, warmup=200, measure=800, drain=600, cold_budget_s=0.05),
        ),
        Workload(
            "sweep-s4",
            sweep_setup,
            sweep_run,
            sweep_check,
            SweepSize(),
            SweepSize(loads=(0.2, 0.5), replications=2, quality="smoke", cold_budget_s=0.05),
        ),
        Workload(
            "service-mixed",
            service_setup,
            service_run,
            service_check,
            ServiceSize(),
            ServiceSize(
                reads=40, burst_at=10, poll_every=5, cold_loads=(0.2, 0.4),
                cold_quality="smoke", ladder_points=6,
            ),
            repeats_exactly=False,
        ),
    )
}
