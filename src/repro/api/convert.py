"""Projection of layer-native results onto the uniform ResultRow schema.

:func:`row_from_unit` maps one campaign work unit and its result —
whether a rich object (``ModelResult``, ``SimulationResult``), a pooled
replication summary dict, or the JSON payload a resumed store handed
back — onto a :class:`~repro.api.results.ResultRow`.  The row's ``spec``
fingerprint is the unit's campaign content hash, so rows remain joinable
against any campaign JSONL store.
"""

from __future__ import annotations

import math
from dataclasses import fields
from typing import Any, Mapping

from repro.api.results import ResultRow
from repro.bounds.network import BoundSpec
from repro.campaign.grid import WorkUnit
from repro.core.spec import ModelSpec
from repro.simulation.config import LEGACY_ENGINE, SimulationConfig
from repro.simulation.spec import SimSpec
from repro.utils.exceptions import ConfigurationError

__all__ = ["row_from_unit"]

#: Kinds this converter understands, mapped to their provenance.
_KIND_PROVENANCE = {
    "model": "model",
    "vc_split_point": "model",
    "scale_point": "model",
    "sim": "sim",
    "bound": "bound",
}


def _spec_defaults(cls, names: tuple[str, ...]) -> dict[str, Any]:
    return {f.name: f.default for f in fields(cls) if f.name in names}


#: Context defaults of model-kind params (ModelSpec's defaults-omitted
#: dict form) and sim-kind params (SimSpec + SimulationConfig), read off
#: the spec dataclasses so they can never drift out of sync.  A sim
#: params dict without ``engine`` is a legacy object-engine record
#: (``LEGACY_ENGINE``), not a run on today's default engine.
_MODEL_DEFAULTS = _spec_defaults(
    ModelSpec, ("topology", "order", "message_length", "total_vcs")
)
_SIM_DEFAULTS = {
    **_spec_defaults(SimSpec, ("topology", "order", "algorithm")),
    **_spec_defaults(
        SimulationConfig, ("message_length", "total_vcs", "seed")
    ),
    "engine": LEGACY_ENGINE,
}


_BOUND_DEFAULTS = _spec_defaults(
    BoundSpec, ("order", "message_length", "total_vcs")
)


def _payload(result: Any) -> Mapping[str, Any]:
    """Dict view of a result (rich objects project through as_dict)."""
    if isinstance(result, Mapping):
        return result
    if hasattr(result, "as_dict"):
        return result.as_dict()
    raise ConfigurationError(
        f"cannot convert result of type {type(result).__name__} to a ResultRow"
    )


def _nan_if_none(value: Any) -> float:
    if value is None:
        return math.nan
    value = float(value)
    return value


def _workload_of(params: Mapping[str, Any]) -> str:
    workload = params.get("workload")
    if workload is None:
        # Model params omit the uniform workload; sim params may carry
        # it in the legacy ``traffic`` field instead.
        workload = params.get("traffic", "uniform")
    return workload


def _scale_point_row(
    unit: WorkUnit, data: dict, meta: Mapping[str, Any] | None
) -> ResultRow:
    """Project a scale-study row onto the schema via ``ResultRow.meta``.

    A scale point has no natural single operating rate (it reports a
    whole-network profile: saturation rate, half-load latency, solve
    time), so ``rate`` is NaN, ``latency`` is the half-load latency, and
    everything else — node counts, distance statistics, solve time —
    rides in ``meta`` (the ROADMAP's "ResultSet everywhere" projection).
    """
    params = unit.params
    order = int(params["n"])
    latency = _nan_if_none(data.pop("half_load_latency", None))
    extras = {
        k: v for k, v in data.items() if not isinstance(v, (list, tuple, dict))
    }
    extras["kind"] = "scale_point"
    if meta:
        extras.update(meta)
    return ResultRow(
        provenance="model",
        spec=unit.key(),
        topology="star",
        order=order,
        workload="uniform",
        message_length=int(params.get("message_length", 32)),
        total_vcs=int(data.get("total_vcs", extras.get("total_vcs", 0))),
        engine="model",
        rate=math.nan,
        latency=latency,
        latency_lo=math.nan,
        latency_hi=math.nan,
        saturated=not math.isfinite(latency),
        algorithm=None,
        replications=1,
        seed=None,
        meta=extras,
    )


def _bound_row(
    unit: WorkUnit, result: Any, data: dict, meta: Mapping[str, Any] | None
) -> ResultRow:
    """One network-calculus bound point as a ``bound``-provenance row.

    ``latency`` carries the headline mean-weighted delay bound; the
    worst-flow and backlog bounds travel in ``meta`` (``inf`` bounds
    serialise as JSONL nulls and parse back to NaN, exactly like
    saturated model rows).
    """
    params = unit.params
    rate = float(params["rate"])
    if hasattr(result, "delay_bound"):
        latency = float(result.delay_bound)
        data.pop("delay_bound", None)
    else:
        latency = _nan_if_none(data.pop("delay_bound", None))
        if latency != latency:  # a stored null is a diverged (infinite) bound
            latency = math.inf if data.get("saturated") else math.nan
    saturated = bool(data.pop("saturated", False))
    data.pop("generation_rate", None)
    extras = {
        k: v for k, v in data.items() if not isinstance(v, (list, tuple, dict))
    }
    if meta:
        extras.update(meta)
    return ResultRow(
        provenance="bound",
        spec=unit.key(),
        topology="star",
        order=int(params.get("order", _BOUND_DEFAULTS["order"])),
        workload=_workload_of(params),
        message_length=int(
            params.get("message_length", _BOUND_DEFAULTS["message_length"])
        ),
        total_vcs=int(params.get("total_vcs", _BOUND_DEFAULTS["total_vcs"])),
        engine="bound",
        rate=rate,
        latency=latency,
        latency_lo=math.nan,
        latency_hi=math.nan,
        saturated=saturated,
        algorithm=None,
        replications=1,
        seed=None,
        meta=extras,
    )


def row_from_unit(unit: WorkUnit, result: Any, meta: Mapping[str, Any] | None = None) -> ResultRow:
    """One ResultRow for a (work unit, result) pair.

    Accepts the rich result objects the campaign kinds return as well as
    their JSON payload forms (what a resumed store yields), so rows can
    be rebuilt from any campaign output.
    """
    provenance = _KIND_PROVENANCE.get(unit.kind)
    if provenance is None:
        raise ConfigurationError(
            f"no ResultRow conversion for work-unit kind {unit.kind!r} "
            f"(expected one of {sorted(_KIND_PROVENANCE)})"
        )
    params = unit.params
    data = dict(_payload(result))
    if unit.kind == "scale_point":
        return _scale_point_row(unit, data, meta)
    if unit.kind == "bound":
        return _bound_row(unit, result, data, meta)
    # Rich result objects carry full-precision values; their as_dict
    # views round for table rendering.  Prefer the attributes.
    if provenance == "model":
        defaults = _MODEL_DEFAULTS
        rate = float(params["rate"])
        if hasattr(result, "latency"):
            latency = float(result.latency)
            data.pop("latency", None)
        else:
            latency = _nan_if_none(data.pop("latency", None))
        lo = hi = math.nan
        saturated = bool(data.pop("saturated", False))
        engine = "model"
        algorithm = None
        replications = 1
        seed = None
        data.pop("generation_rate", None)
    else:
        defaults = _SIM_DEFAULTS
        rate = float(params.get("generation_rate", 0.001))
        if hasattr(result, "mean_latency"):
            latency = float(result.mean_latency)
            ci = float(result.latency_ci)
            data.pop("mean_latency", None)
            data.pop("latency_ci", None)
        else:
            latency = _nan_if_none(data.pop("mean_latency", None))
            ci = _nan_if_none(data.pop("latency_ci", None))
        lo = latency - ci
        hi = latency + ci
        saturated = bool(data.pop("saturated", False))
        replications = int(data.pop("replications", 1))
        engine = params.get("engine", defaults["engine"])
        algorithm = params.get("algorithm", defaults["algorithm"])
        seed = int(params.get("seed", defaults["seed"]))
    # Hop-blocking tables and other non-scalar extras stay out of the
    # row meta — rows are flat, one-line JSONL records.
    extras = {k: v for k, v in data.items() if not isinstance(v, (list, tuple, dict))}
    if meta:
        extras.update(meta)
    return ResultRow(
        provenance=provenance,
        spec=unit.key(),
        topology=params.get("topology", defaults["topology"]),
        order=int(params.get("order", defaults["order"])),
        workload=_workload_of(params),
        message_length=int(params.get("message_length", defaults["message_length"])),
        total_vcs=int(params.get("total_vcs", defaults["total_vcs"])),
        engine=engine,
        rate=rate,
        latency=latency,
        latency_lo=lo,
        latency_hi=hi,
        saturated=saturated,
        algorithm=algorithm,
        replications=replications,
        seed=seed,
        meta=extras,
    )
