"""Backend registry: one simulation contract, two engines.

``engine="object"`` is the reference implementation
(:class:`repro.simulation.engine.WormholeSimulator`): an object-per-flit
cycle loop whose per-seed results are frozen — regression tests pin them
bit-for-bit.  ``engine="array"`` is the batched backend
(:class:`repro.simulation.kernels.ArraySimulator`): the same four-phase
cycle run by one compiled C loop over structure-of-arrays state,
statistically equivalent to the object engine and able to advance many
replications in one process (see ``docs/simulation.md`` for the
equivalence contract).  Without a C compiler the array engine raises
:class:`ConfigurationError` naming ``engine='object'``; it never
substitutes the object engine, whose results would then pose as
array-engine results.

The backend is named by :attr:`SimulationConfig.engine`, and every entry
point — ``SimSpec.run``, the campaign ``sim`` kind, the
``starnet sim``/``campaign``/``validate`` CLI — routes through
:func:`simulate_many` here; :func:`simulate` (one config) and
:func:`simulate_batch` (one config, R seeds) are thin wrappers over it.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.routing.base import RoutingAlgorithm
from repro.simulation import engine as _engine
from repro.simulation.config import SimulationConfig
from repro.simulation.kernels import ArraySimulator
from repro.simulation.metrics import HopBlockingStats, SimulationResult, t_halfwidth
from repro.topology.base import Topology
from repro.utils.exceptions import ConfigurationError

__all__ = [
    "ENGINES",
    "available_engines",
    "make_simulator",
    "simulate",
    "simulate_batch",
    "simulate_many",
    "summarize_batch",
]

#: Engine name -> simulator factory ``(topology, algorithm, config)``.
#: Note the backends' ``run()`` signatures differ — the object engine
#: returns one :class:`SimulationResult`, the array engine a list with
#: one entry per seed; use :func:`simulate` / :func:`simulate_batch` for
#: a backend-neutral call.
ENGINES = {
    "object": _engine.WormholeSimulator,
    "array": ArraySimulator,
}


def available_engines() -> tuple[str, ...]:
    """Registered backend names, alphabetical."""
    return tuple(sorted(ENGINES))


def _resolve(engine: str | None, config: SimulationConfig) -> str:
    name = config.engine if engine is None else engine
    if name not in ENGINES:
        raise ConfigurationError(
            f"unknown simulation engine {name!r}; available: "
            f"{', '.join(available_engines())}"
        )
    return name


def make_simulator(
    topology: Topology,
    algorithm: RoutingAlgorithm,
    config: SimulationConfig,
    engine: str | None = None,
    profile: bool = False,
    probe_interval: int | None = None,
):
    """Build a single-run simulator on the selected backend.

    ``engine=None`` defers to ``config.engine`` (the plumbed-through
    campaign/CLI knob); an explicit name overrides it.  The returned
    simulator exposes the backend's native interface (``step``/``run``;
    the array backend's ``run()`` returns a one-element list) — use
    :func:`simulate` when you just want a :class:`SimulationResult`.

    ``profile`` turns on the array backend's per-phase cycle timing and
    ``probe_interval`` its cycle-resolution time-series probes (both
    observation-only — results stay bit-identical; the object engine
    ignores them).
    """
    name = _resolve(engine, config)
    if name == "object":
        return _engine.WormholeSimulator(topology, algorithm, config)
    return ArraySimulator(
        topology,
        algorithm,
        config,
        profile=profile,
        probe_interval=probe_interval,
    )


def simulate(
    topology: Topology,
    algorithm: RoutingAlgorithm,
    config: SimulationConfig,
    engine: str | None = None,
    profile: bool = False,
    probe_interval: int | None = None,
) -> SimulationResult:
    """Run one simulation on the selected backend."""
    return simulate_many(
        topology,
        algorithm,
        [config],
        engine=engine,
        profile=profile,
        probe_interval=probe_interval,
    )[0]


def simulate_batch(
    topology: Topology,
    algorithm: RoutingAlgorithm,
    config: SimulationConfig,
    replications: int = 1,
    seeds: Sequence[int] | None = None,
    engine: str | None = None,
    profile: bool = False,
    probe_interval: int | None = None,
) -> list[SimulationResult]:
    """Run R independent replications; one result per seed, in seed order.

    ``seeds`` defaults to ``config.seed .. config.seed + R - 1``.  On the
    array backend all replications advance through one cycle loop (a
    confidence-interval run costs one process); on the object
    backend the seeds run sequentially.  Replication ``i``'s counts
    depend only on ``seeds[i]``; its float sums can differ from a solo
    run's in the last bits (see :func:`simulate_many`).
    """
    if replications < 1:
        raise ConfigurationError(f"replications must be >= 1, got {replications}")
    if seeds is None:
        seeds = tuple(config.seed + i for i in range(replications))
    else:
        seeds = tuple(int(s) for s in seeds)
        if len(seeds) != replications:
            raise ConfigurationError(
                f"got {len(seeds)} seeds for {replications} replications"
            )
    return simulate_many(
        topology,
        algorithm,
        [config if s == config.seed else config.with_seed(s) for s in seeds],
        engine=engine,
        profile=profile,
        probe_interval=probe_interval,
    )


def simulate_many(
    topology: Topology,
    algorithm: RoutingAlgorithm,
    configs: Sequence[SimulationConfig],
    engine: str | None = None,
    profile: bool = False,
    probe_interval: int | None = None,
) -> list[SimulationResult]:
    """Run heterogeneous configs together; one result per config, in order.

    The configs may differ in rate, seed, measurement windows and drain
    budget (anything except the structural fields — message length, VC
    count, buffer depth, workload...).  On the array backend the whole
    set advances as *one* batched simulation — e.g. an entire rate-ladder
    × seed grid in a single pass — with each replication stopped and
    snapshotted at its own horizon.  On the object backend the configs
    run sequentially.  Result ``i``'s counts are those of ``configs[i]``
    run solo; on the array backend its float sums (``mean_latency``...)
    can differ in the last bits, because batch companions perturb the
    order in which a cycle's completions accumulate.
    """
    configs = list(configs)
    if not configs:
        raise ConfigurationError("simulate_many needs at least one config")
    name = _resolve(engine, configs[0])
    if name == "object":
        return [_engine.simulate(topology, algorithm, c) for c in configs]
    return ArraySimulator(
        topology,
        algorithm,
        configs=configs,
        profile=profile,
        probe_interval=probe_interval,
    ).run()


def summarize_batch(results: Sequence[SimulationResult]) -> dict:
    """Pool a batch of replications into one JSON-friendly summary row.

    The across-replication 95% confidence interval treats each
    replication's mean as one observation (Student-t critical value, like
    the per-run batch-means CI).  Fields are named as in
    :meth:`SimulationResult.as_dict` (``saturated``: any replication did).
    """
    if not results:
        raise ConfigurationError("summarize_batch needs at least one result")

    def pooled_mean(values):
        finite = [v for v in values if not math.isnan(v)]
        return sum(finite) / len(finite) if finite else math.nan

    # A replication that measured nothing (e.g. deep saturation) reports
    # NaN latencies; pool over the replications that did measure.
    means = [r.mean_latency for r in results if not math.isnan(r.mean_latency)]
    R = len(means)
    mean = sum(means) / R if R else math.nan
    ci = t_halfwidth(means)
    net = pooled_mean([r.mean_network_latency for r in results])
    hop_stats = [r.hop_blocking for r in results if r.hop_blocking is not None]
    out = {
        "replications": len(results),
        "mean_latency": round(mean, 3) if not math.isnan(mean) else math.nan,
        "latency_ci": round(ci, 3) if not math.isnan(ci) else math.nan,
        "mean_network_latency": round(net, 3) if not math.isnan(net) else math.nan,
        "accepted_rate": round(
            sum(r.accepted_rate for r in results) / len(results), 6
        ),
        "messages_measured": sum(r.messages_measured for r in results),
        "saturated": any(r.saturated for r in results),
        "cycles_run": max(r.cycles_run for r in results),
    }
    if hop_stats:
        # Pooled per-hop blocking: the batch counterpart of a single
        # run's hop table, feeding the model's P_block(k) comparison
        # (``starnet validate --hops``).
        out["hop_blocking"] = HopBlockingStats.merge(hop_stats).as_rows()
    profiles = [r.phase_ns for r in results if r.phase_ns]
    if profiles:
        # Phase timing is attached once per *batch* (to its first
        # replication), so summing the non-None dicts pools separately
        # run batches without double counting.
        pooled: dict[str, int] = {}
        for prof in profiles:
            for key, value in prof.items():
                pooled[key] = pooled.get(key, 0) + int(value)
        out["phase_ns"] = pooled
    return out
