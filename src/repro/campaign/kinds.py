"""Built-in work-unit kinds: the functions a campaign can execute.

Each kind maps a plain params dict to a result object.  Kinds live at
module top level so :mod:`concurrent.futures` workers can pickle units by
reference regardless of the start method; custom kinds register through
:func:`register_kind` (the defining module must be importable in worker
processes).

Built-ins
---------
``model``
    Evaluate a latency model at one generation rate -> ``ModelResult``.
``saturation``
    Bracket-expanding saturation search -> ``SaturationSearch``.
``sim``
    One flit-level simulation point (the backend comes from the spec's
    ``engine`` field: object or array).  With ``replications`` R > 1
    (default 1) seeds ``seed .. seed + R - 1`` run as one batch and
    pool into a summary dict with an across-replication confidence
    interval, e.g. ``starnet campaign --kind sim --set replications=16
    --set engine=array``; R = 1 returns the ``SimulationResult``.
``scale_point``
    One row of the large-n scale study (distance stats, saturation,
    half-load latency, solve time) -> dict.
``vc_split_point``
    One row of the VC-split ablation (latency at a fixed rate plus the
    split's saturation rate) -> dict.
``bound``
    Network-calculus delay/backlog bounds at one generation rate ->
    ``BoundResult`` (see :mod:`repro.bounds`).
"""

from __future__ import annotations

import math
import time
from typing import Any, Callable, Mapping

from repro.campaign import cache
from repro.core.spec import ModelSpec
from repro.simulation.spec import SimSpec
from repro.utils.exceptions import ConfigurationError

__all__ = [
    "KINDS",
    "register_kind",
    "lookup",
    "available_kinds",
    "fused_sim_group",
    "run_units_fused",
]


KINDS: dict[str, Callable[[Mapping[str, Any]], Any]] = {}


def register_kind(name: str):
    """Decorator registering an executor under ``name``."""

    def _register(fn):
        if name in KINDS:
            raise ConfigurationError(f"work-unit kind {name!r} already registered")
        KINDS[name] = fn
        return fn

    return _register


def available_kinds() -> tuple[str, ...]:
    """Registered kind names, alphabetical."""
    return tuple(sorted(KINDS))


def lookup(name: str) -> Callable[[Mapping[str, Any]], Any]:
    """Resolve a kind name to its executor."""
    try:
        return KINDS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown work-unit kind {name!r}; available: {', '.join(available_kinds())}"
        ) from None


# ----------------------------------------------------------------------
# Whole-sweep fusion: batch compatible array-engine sim units together
# ----------------------------------------------------------------------

#: SimSpec params free to differ between replications of one batched
#: array simulation; everything else is structural and must match for
#: units to share a SimState (mirrors ArraySimulator's configs check).
_FUSE_VARYING = (
    "generation_rate",
    "seed",
    "warmup_cycles",
    "measure_cycles",
    "drain_cycles",
    "batches",
)


def _sim_request(params: Mapping[str, Any]) -> tuple[SimSpec, int]:
    """The SimSpec and replication count a ``sim`` unit's params name."""
    params = dict(params)
    replications = int(params.pop("replications", 1))
    if replications < 1:
        raise ConfigurationError(f"replications must be >= 1, got {replications}")
    return SimSpec.from_params(params), replications


def _pooled(results: list) -> Any:
    """A ``sim`` unit's result from its R runs (see :func:`sim_point`)."""
    from repro.simulation.backends import summarize_batch

    return results[0] if len(results) == 1 else summarize_batch(results)


def fused_sim_group(unit) -> tuple | None:
    """Structural grouping key of a fusible work unit, or ``None``.

    ``sim`` units on the array engine whose keys agree can advance as
    one batched simulation (each unit expands to its R per-replication
    configs).  Every other unit — object-engine runs, model/bound/scale
    points — returns ``None`` and executes alone.
    """
    if unit.kind != "sim":
        return None
    params = dict(unit.params)
    params.pop("replications", None)
    if params.get("engine") != "array":
        return None
    for name in _FUSE_VARYING:
        params.pop(name, None)
    return tuple(sorted(params.items()))


def _run_fused_group(units: list) -> list[Any]:
    """Run one structurally-compatible group as a single batched sim.

    Returns one result per unit, in unit order, in :func:`sim_point`'s
    form.  Counts match running each unit alone; float sums can differ
    in the last bits (see :func:`repro.simulation.backends.simulate_many`).
    """
    from repro.simulation.backends import simulate_many

    configs: list = []
    slices: list[tuple[int, int]] = []
    for unit in units:
        spec, replications = _sim_request(unit.params)
        slices.append((len(configs), replications))
        configs.extend(spec.config.with_seed(spec.config.seed + i) for i in range(replications))
    topology, algorithm, _ = spec.build()
    results = simulate_many(topology, algorithm, configs, engine="array")
    return [_pooled(results[off : off + n]) for off, n in slices]


def run_units_fused(units, progress=None, events=None, trace=None) -> list[Any]:
    """Execute work units in order, fusing compatible array sim units.

    The single-process, no-store counterpart of
    :func:`repro.campaign.runner.run_campaign`: fusible units (see
    :func:`fused_sim_group`) advance as one batched simulation per
    structural group — a whole rate-ladder × seed grid in one SimState —
    while every other unit executes individually.  Results come back in
    unit order; ``progress(done, total)`` fires as unit results
    materialize (a fused group completes all at once).  Everything runs
    serially in this process; for parallelism use ``run_campaign`` with
    ``workers > 1``, which dispatches unit by unit to worker processes.

    ``events`` (an :class:`repro.obs.EventSink` or None) receives one
    ``fused_group`` event per structural group before execution starts —
    the group's unit count is the fan-in the batching saves.  ``trace``
    (a :class:`repro.obs.TraceContext` or None) stamps those events with
    the caller's trace/span ids so a fused sweep stays attributable
    inside a larger trace.
    """
    units = list(units)
    keys = [fused_sim_group(u) for u in units]
    groups: dict[tuple, list[int]] = {}
    for i, key in enumerate(keys):
        if key is not None:
            groups.setdefault(key, []).append(i)
    results: list[Any] = [None] * len(units)
    total = len(units)
    if events is not None:
        solo = sum(1 for key in keys if key is None)
        trace_fields = trace.as_fields() if trace is not None else {}
        for indices in groups.values():
            events.emit(
                "fused_group",
                size=len(indices),
                kinds=sorted({units[j].kind for j in indices}),
                **trace_fields,
            )
        events.emit(
            "fused_plan", units=total, groups=len(groups), unfused=solo,
            **trace_fields,
        )

    done = 0
    started: set = set()
    for i, unit in enumerate(units):
        key = keys[i]
        if key is None:
            results[i] = lookup(unit.kind)(unit.params)
            done += 1
        elif key not in started:
            started.add(key)
            indices = groups[key]
            for j, result in zip(indices, _run_fused_group([units[j] for j in indices])):
                results[j] = result
            done += len(indices)
        else:
            continue
        if progress is not None:
            progress(done, total)
    return results


def _build_model(params: Mapping[str, Any], drop: tuple[str, ...] = ()):
    spec_params = {k: v for k, v in params.items() if k not in drop}
    spec = ModelSpec.from_params(spec_params)
    stats = cache.path_statistics(spec.topology, spec.order)
    return spec.build(stats=stats)


@register_kind("model")
def model_point(params: Mapping[str, Any]):
    """Evaluate the model at ``rate`` (all other params feed ModelSpec)."""
    if "rate" not in params:
        raise ConfigurationError("kind 'model' requires a 'rate' parameter")
    model = _build_model(params, drop=("rate",))
    return model.evaluate(float(params["rate"]))


@register_kind("saturation")
def saturation_point(params: Mapping[str, Any]):
    """Saturation search; optional 'lo'/'hi'/'tol' override the bracket."""
    extras = ("lo", "hi", "tol")
    model = _build_model(params, drop=extras)
    kwargs = {k: float(params[k]) for k in extras if k in params}
    return model.saturation_search(**kwargs)


@register_kind("sim")
def sim_point(params: Mapping[str, Any]):
    """One simulation point described by the flat SimSpec dict.

    ``replications`` R (default 1) runs seeds ``seed .. seed + R - 1`` as
    one batch: R = 1 returns the :class:`SimulationResult`, R > 1 the
    pooled :func:`~repro.simulation.backends.summarize_batch` row.
    """
    spec, replications = _sim_request(params)
    return _pooled(spec.run_batch(replications))


@register_kind("scale_point")
def scale_point(params: Mapping[str, Any]):
    """One row of the scale study for star order ``n``."""
    n = int(params["n"])
    message_length = int(params.get("message_length", 32))
    extra_adaptive = int(params.get("extra_adaptive", 2))
    diameter = (3 * (n - 1)) // 2
    total_vcs = diameter // 2 + 1 + extra_adaptive
    t0 = time.perf_counter()
    spec = ModelSpec(
        topology="star", order=n, message_length=message_length, total_vcs=total_vcs
    )
    model = spec.build(stats=cache.path_statistics("star", n))
    sat = model.saturation_rate()
    mid = model.evaluate(0.5 * sat if math.isfinite(sat) else 0.01)
    solve_ms = (time.perf_counter() - t0) * 1e3
    return {
        "n": n,
        "nodes": math.factorial(n),
        "degree": n - 1,
        "diameter": diameter,
        "total_vcs": total_vcs,
        "mean_distance": round(model.mean_distance(), 4),
        "zero_load_latency": round(model.zero_load_latency(), 2),
        "half_load_latency": mid.latency,
        "saturation_rate": sat,
        "solve_ms": round(solve_ms, 2),
    }


@register_kind("bound")
def bound_kind(params: Mapping[str, Any]):
    """Network-calculus bounds at ``rate`` (other params feed BoundSpec)."""
    from repro.bounds.analysis import bound_point
    from repro.bounds.network import BoundSpec

    if "rate" not in params:
        raise ConfigurationError("kind 'bound' requires a 'rate' parameter")
    spec = BoundSpec.from_params(
        {k: v for k, v in params.items() if k != "rate"}
    )
    return bound_point(spec, float(params["rate"]))


@register_kind("vc_split_point")
def vc_split_point(params: Mapping[str, Any]):
    """One row of the VC-split ablation (explicit split required)."""
    model = _build_model(params, drop=("rate",))
    res = model.evaluate(float(params["rate"]))
    return {
        "num_adaptive": model.vc.num_adaptive,
        "num_escape": model.vc.num_escape,
        "latency": res.latency,
        "saturated": res.saturated,
        "saturation_rate": model.saturation_rate(),
    }
