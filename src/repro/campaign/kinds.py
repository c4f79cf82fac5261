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
    One flit-level simulation run -> ``SimulationResult`` (the backend
    comes from the spec's ``engine`` field: object or array).
``sim_batch``
    R replications (``replications`` param, default 8) of one simulation
    point in a single vectorized process -> pooled summary dict with an
    across-replication confidence interval.
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


def fused_sim_group(unit) -> tuple | None:
    """Structural grouping key of a fusible work unit, or ``None``.

    ``sim``/``sim_batch`` units on the array engine whose keys agree can
    advance as one batched simulation (each unit expands to one or more
    per-replication configs).  Every other unit — object-engine runs,
    model/bound/scale points — returns ``None`` and executes alone.
    """
    if unit.kind not in ("sim", "sim_batch"):
        return None
    params = dict(unit.params)
    params.pop("replications", None)
    if unit.kind == "sim_batch":
        params.setdefault("engine", "array")
    if params.get("engine") != "array":
        return None
    for name in _FUSE_VARYING:
        params.pop(name, None)
    return tuple(sorted(params.items()))


def _expand_fused_unit(unit) -> list:
    """The per-replication configs one fusible unit contributes."""
    params = dict(unit.params)
    replications = int(params.pop("replications", 8))
    if unit.kind == "sim_batch":
        params.setdefault("engine", "array")
    spec = SimSpec.from_params(params)
    if unit.kind == "sim":
        return [spec.config]
    return [spec.config.with_seed(spec.config.seed + i) for i in range(replications)]


def _run_fused_group(units: list) -> list[Any]:
    """Run one structurally-compatible group as a single batched sim.

    Returns one result per unit, in unit order: ``sim`` units yield
    their single :class:`SimulationResult`, ``sim_batch`` units the
    pooled summary of their replication slice.  Per-replication purity
    of the array backend makes each result bit-identical to running the
    unit on its own.
    """
    from repro.simulation.backends import simulate_many, summarize_batch

    configs: list = []
    slices: list[tuple[str, int, int]] = []
    spec = None
    for unit in units:
        cfgs = _expand_fused_unit(unit)
        params = {
            k: v for k, v in unit.params.items() if k != "replications"
        }
        if unit.kind == "sim_batch":
            params.setdefault("engine", "array")
        spec = SimSpec.from_params(params)
        slices.append((unit.kind, len(configs), len(cfgs)))
        configs.extend(cfgs)
    topology, algorithm, _ = spec.build()
    results = simulate_many(topology, algorithm, configs, engine="array")
    out: list[Any] = []
    for kind, off, n in slices:
        if kind == "sim":
            out.append(results[off])
        else:
            out.append(summarize_batch(results[off : off + n]))
    return out


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
    """One simulation run described by the flat SimSpec dict."""
    return SimSpec.from_params(params).run()


@register_kind("sim_batch")
def sim_batch_point(params: Mapping[str, Any]):
    """R replications of one simulation point, pooled into a summary row.

    ``replications`` (default 8) seeds run ``seed .. seed + R - 1``.  On
    the array engine (the default here) the whole batch advances in one
    vectorized process — the confidence-interval counterpart of ``sim``.
    """
    from repro.simulation.backends import summarize_batch

    params = dict(params)
    replications = int(params.pop("replications", 8))
    params.setdefault("engine", "array")
    spec = SimSpec.from_params(params)
    return summarize_batch(spec.run_batch(replications))


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
