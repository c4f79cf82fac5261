"""Per-workload model-vs-sim validation, driven by the campaign engine.

The paper validates the model against simulation for one workload only
(uniform destinations, Poisson sources).  This module generalises that
check to any set of :mod:`repro.workloads` specifications: a campaign
grid with a ``workload`` axis sweeps both the analytical model (kind
``model``) and the flit-level simulator (kind ``sim``, pooling
``replications`` runs per point when asked) over a shared rate ladder,
and each workload gets its own
:class:`~repro.validation.compare.CurveComparison` plus a
:class:`~repro.api.results.ResultSet` of uniform model/sim rows.

The rate ladder is anchored to the *most constrained* workload's model
saturation point so every operating point is below saturation for every
workload (the regime in which the model claims accuracy; e.g. a hotspot
workload saturates several times earlier than uniform).

The preferred entry point is the facade —
``Scenario(...).validate(...)`` — which routes through
:func:`validate_workloads` and returns the flattened ResultSet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping

from repro.api.convert import row_from_unit
from repro.api.results import ResultSet
from repro.campaign.grid import GridSpec
from repro.campaign.runner import run_campaign
from repro.core.spec import ModelSpec
from repro.simulation.config import DEFAULT_ENGINE
from repro.utils.exceptions import ConfigurationError
from repro.validation.compare import CurveComparison, OperatingPoint, compare_curves
from repro.workloads.spec import WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.scenario import Scenario

__all__ = [
    "DEFAULT_WORKLOADS",
    "WorkloadValidation",
    "validation_grids",
    "validate_workloads",
    "model_hop_profile",
]

#: A small representative suite: the paper's workload, a non-uniform
#: spatial pattern, and a bursty temporal process.
DEFAULT_WORKLOADS = (
    "uniform",
    "hotspot(fraction=0.1)",
    "uniform+onoff(duty=0.5,burst=4)",
)


@dataclass(frozen=True)
class WorkloadValidation:
    """Model-vs-sim accuracy of one workload over the shared rate ladder."""

    workload: str
    rates: tuple[float, ...]
    comparison: CurveComparison
    tolerance: float | None
    #: Uniform model/sim rows of this workload (ResultRow schema).
    rows: ResultSet | None = None
    #: Measured per-hop blocking tables, one ``(rate, rows)`` pair per
    #: ladder point (None unless hop instrumentation was requested).
    hop_profiles: tuple[tuple[float, tuple[dict, ...]], ...] | None = None

    @property
    def passed(self) -> bool | None:
        """Tolerance verdict (None when no tolerance was requested)."""
        if self.tolerance is None:
            return None
        if self.comparison.stable_points == 0:
            return False
        return self.comparison.mean_relative_error <= self.tolerance

    def summary(self) -> str:
        """One-line human-readable report."""
        text = f"{self.workload}: {self.comparison.summary()}"
        if self.tolerance is not None:
            verdict = "PASS" if self.passed else "FAIL"
            text += f" [{verdict} @ {100 * self.tolerance:.0f}%]"
        return text


def _scenario_model_extras(scenario: "Scenario | None") -> tuple[tuple[str, Any], ...]:
    """Non-default model-side params a scenario adds to the model grid.

    Empty for default scenarios, keeping their campaign keys byte-stable
    with pre-facade stores; a non-default variant / VC split / solver
    setting enters the keys exactly as ModelSpec would spell it.
    """
    if scenario is None:
        return ()
    params = scenario.model_spec().to_params()
    for name in ("topology", "order", "message_length", "total_vcs", "workload"):
        params.pop(name, None)
    return tuple(sorted(params.items()))


def validation_grids(
    workloads: tuple[str, ...],
    rates: tuple[float, ...],
    *,
    order: int,
    message_length: int,
    total_vcs: int,
    quality: str = "quick",
    seed: int = 0,
    engine: str = DEFAULT_ENGINE,
    replications: int = 1,
    scenario: "Scenario | None" = None,
) -> tuple[GridSpec, GridSpec]:
    """The (model, sim) campaign grids sharing a ``workload`` axis."""
    from repro.api.quality import sim_quality_config

    window = sim_quality_config(
        quality,
        message_length=message_length,
        generation_rate=rates[0],
        total_vcs=total_vcs,
        seed=seed,
    )
    if scenario is not None:
        window = scenario.sim_config(rates[0])
    model_grid = GridSpec(
        kind="model",
        axes=(("workload", tuple(workloads)), ("rate", tuple(rates))),
        pinned=(
            ("topology", "star"),
            ("order", order),
            ("message_length", message_length),
            ("total_vcs", total_vcs),
        )
        + _scenario_model_extras(scenario),
    )
    pinned = [
        ("topology", "star"),
        ("order", order),
        ("message_length", message_length),
        ("total_vcs", total_vcs),
        ("warmup_cycles", window.warmup_cycles),
        ("measure_cycles", window.measure_cycles),
        ("drain_cycles", window.drain_cycles),
        ("seed", seed),
        ("engine", engine),
    ]
    if scenario is not None and scenario.algorithm != "enhanced_nbc":
        # Non-default routing must reach the sim units; the default stays
        # out of the params so historical campaign keys hold.
        pinned.append(("algorithm", scenario.algorithm))
    if replications > 1:
        pinned.append(("replications", replications))
    sim_grid = GridSpec(
        kind="sim",
        axes=(("workload", tuple(workloads)), ("generation_rate", tuple(rates))),
        pinned=tuple(pinned),
    )
    return model_grid, sim_grid


def _shared_rate_ladder(
    workloads: tuple[str, ...],
    fractions: tuple[float, ...],
    *,
    order: int,
    message_length: int,
    total_vcs: int,
) -> tuple[float, ...]:
    """Load points anchored to the most constrained workload's saturation."""
    sat = math.inf
    for workload in workloads:
        model = ModelSpec(
            topology="star",
            order=order,
            message_length=message_length,
            total_vcs=total_vcs,
            workload=workload,
        ).build()
        sat = min(sat, model.saturation_rate())
    if not math.isfinite(sat):
        raise ConfigurationError(
            "no workload in the suite saturates the model; cannot anchor the rate ladder"
        )
    return tuple(round(f * sat, 6) for f in fractions)


def _hop_rows(result: Any) -> tuple[dict, ...]:
    """Measured per-hop blocking rows of a sim result (run or pooled)."""
    if isinstance(result, Mapping):
        return tuple(result.get("hop_blocking") or ())
    if result.hop_blocking is None:
        return ()
    return tuple(result.hop_blocking.as_rows())


def model_hop_profile(
    workload: str,
    rate: float,
    *,
    order: int,
    message_length: int,
    total_vcs: int,
) -> dict[int, dict[str, float]]:
    """The model's per-hop blocking terms for one operating point.

    Returns ``{hop: {"p_block": ..., "blocking_delay": ...}}`` for the
    dominant (diameter-distance) destination class, averaged over hop
    parity — directly comparable with the simulator's measured
    :class:`~repro.simulation.metrics.HopBlockingStats` rows (Eq. 6).
    """
    from repro.core.occupancy import vc_occupancy

    model = ModelSpec(
        topology="star",
        order=order,
        message_length=message_length,
        total_vcs=total_vcs,
        workload=None if WorkloadSpec.coerce(workload).canonical == "uniform" else workload,
    ).build()
    pred = model.evaluate(rate)
    if pred.saturated:
        return {}
    occupancy = vc_occupancy(pred.channel_rate, pred.network_latency, model.vc.total)
    longest = max(model.stats.classes, key=lambda c: c.distance)
    out: dict[int, dict[str, float]] = {}
    for k in range(1, longest.distance + 1):
        p = 0.5 * (
            model.blocking.hop_blocking(occupancy, longest, k, 0)
            + model.blocking.hop_blocking(occupancy, longest, k, 1)
        )
        out[k] = {
            "p_block": round(p, 5),
            "blocking_delay": round(p * pred.channel_wait, 4),
        }
    return out


def validate_workloads(
    workloads: tuple[str, ...] = DEFAULT_WORKLOADS,
    *,
    order: int = 4,
    message_length: int = 16,
    total_vcs: int = 5,
    load_fractions: tuple[float, ...] = (0.2, 0.4, 0.6),
    quality: str = "quick",
    seed: int = 0,
    engine: str = DEFAULT_ENGINE,
    workers: int = 1,
    tolerance: float | None = None,
    cache_dir=None,
    replications: int = 1,
    hops: bool = False,
    scenario: "Scenario | None" = None,
) -> list[WorkloadValidation]:
    """Compare model and simulator per workload below saturation.

    Every (workload, rate) pair expands into one ``model`` and one
    ``sim`` campaign work unit (a pooled across-replication CI when
    ``replications > 1``), and both grids run through
    :func:`repro.campaign.runner.run_campaign` (``workers > 1`` fans out
    over a process pool).  Returns one
    validation record per workload, in input order, each carrying its
    paired model/sim :class:`~repro.api.results.ResultSet` rows and,
    with ``hops=True``, the measured per-hop blocking tables.

    ``scenario`` routes the shared knobs (order, message length, VC
    budget, quality window, seed, engine) from a
    :class:`~repro.api.scenario.Scenario` facade instead of the
    individual keyword arguments.
    """
    if scenario is not None:
        if scenario.topology != "star":
            raise ConfigurationError("workload validation is star-only")
        order = scenario.order
        message_length = scenario.message_length
        total_vcs = scenario.total_vcs
        quality = scenario.quality
        seed = scenario.seed
        engine = scenario.engine
    if replications < 1:
        raise ConfigurationError(f"replications must be >= 1, got {replications}")
    workloads = tuple(WorkloadSpec.coerce(w).canonical for w in workloads)
    if len(set(workloads)) != len(workloads):
        raise ConfigurationError(f"duplicate workloads in validation suite: {workloads}")
    rates = _shared_rate_ladder(
        workloads,
        tuple(load_fractions),
        order=order,
        message_length=message_length,
        total_vcs=total_vcs,
    )
    model_grid, sim_grid = validation_grids(
        workloads,
        rates,
        order=order,
        message_length=message_length,
        total_vcs=total_vcs,
        quality=quality,
        seed=seed,
        engine=engine,
        replications=replications,
        scenario=scenario,
    )
    model_units = model_grid.expand()
    sim_units = sim_grid.expand()
    result = run_campaign(
        model_units + sim_units, workers=workers, cache_dir=cache_dir
    )
    model_results = result.results[: len(model_units)]
    sim_results = result.results[len(model_units) :]

    out: list[WorkloadValidation] = []
    n_rates = len(rates)
    for w_idx, workload in enumerate(workloads):
        points = []
        rows = ResultSet()
        profiles: list[tuple[float, tuple[dict, ...]]] = []
        for r_idx, rate in enumerate(rates):
            i = w_idx * n_rates + r_idx
            model = model_results[i]
            sim = sim_results[i]
            sim_row = row_from_unit(sim_units[i], sim)
            points.append(
                OperatingPoint(
                    generation_rate=rate,
                    model_latency=model.latency,
                    sim_latency=sim_row.latency,
                    model_saturated=model.saturated,
                    sim_saturated=sim_row.saturated,
                )
            )
            rows.rows.append(row_from_unit(model_units[i], model))
            rows.rows.append(sim_row)
            if hops:
                profiles.append((rate, _hop_rows(sim)))
        out.append(
            WorkloadValidation(
                workload=workload,
                rates=rates,
                comparison=compare_curves(points),
                tolerance=tolerance,
                rows=rows,
                hop_profiles=tuple(profiles) if hops else None,
            )
        )
    return out
