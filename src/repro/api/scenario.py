"""The Scenario facade: one declarative description of a network under load.

A :class:`Scenario` names everything the model, the simulator, the
campaign engine and the validation layer need — topology, order, routing
algorithm, message length, VC budget and split, workload string, solver
and engine knobs — canonicalised and validated once, in one place.  From
it every execution path dispatches onto the existing layers:

* :meth:`Scenario.model` — the analytical pipeline (``ModelSpec``);
* :meth:`Scenario.simulate` — the flit-level simulator (``SimSpec``),
  engine- and replications-aware;
* :meth:`Scenario.bound` — the network-calculus bound engine
  (``BoundSpec``, see :mod:`repro.bounds`);
* :meth:`Scenario.sweep` — a campaign over (rate x workload x engine x
  anything), parallel / resumable / cache-backed;
* :meth:`Scenario.validate` — per-workload model-vs-sim accuracy.

Every path returns a schema-versioned
:class:`~repro.api.results.ResultSet` of uniform rows, so analytical,
simulated and bound rows share one wire format.

Key stability: the facade builds campaign work units through the same
``ModelSpec.to_params()`` / ``SimSpec.to_params()`` defaults-omitted
dicts as the pre-facade experiment drivers, so model keys are
byte-identical to historical campaign stores.  Sim keys always name
their ``engine``; the store re-keys older engine-less (object) sim
rows on load, so object-pinned scenarios resume from them (both pinned
in ``tests/api/test_key_stability.py``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields, replace
from typing import Any, Mapping, Sequence

from repro.api.convert import row_from_unit
from repro.api.quality import QUALITY_WINDOWS, quality_for_windows, quality_windows
from repro.api.results import ResultSet
from repro.campaign.grid import WorkUnit, canonical_key, parse_axis_values
from repro.campaign.runner import run_campaign
from repro.core.spec import ModelSpec
from repro.core.solver import SolverSettings
from repro.simulation.config import DEFAULT_ENGINE, SimulationConfig
from repro.simulation.spec import SimSpec
from repro.utils.exceptions import ConfigurationError
from repro.workloads.spec import WorkloadSpec

__all__ = ["Scenario", "run_units"]

_DEFAULT_SOLVER = SolverSettings()

#: The pseudo-engine selecting the analytical model on an engine axis.
_MODEL_ENGINE = "model"

#: The pseudo-engine selecting the network-calculus bound engine.
_BOUND_ENGINE = "bound"

#: Simulation backends a Scenario may name.
_SIM_ENGINES = ("object", "array")


#: The facade's one execution funnel: the CLI and every Scenario method
#: run campaign work units through this name, which is
#: :func:`repro.campaign.runner.run_campaign` itself.
run_units = run_campaign


@dataclass(frozen=True)
class Scenario:
    """One network-under-workload, as plain data.

    Attributes
    ----------
    topology / order:
        ``"star"`` (order = n) or ``"hypercube"`` (order = k).
    algorithm:
        Routing-registry name driving the simulator (the analytical
        model abstracts over adaptive routing and ignores it).
    message_length / total_vcs:
        The paper's M and V.
    num_adaptive / num_escape:
        Optional explicit VC split (both or neither); affects the model
        only — the simulator derives its split from the algorithm.
    workload:
        ``spatial[+temporal]`` workload string, canonicalised once here
        (``"uniform"`` is the paper's uniform/Poisson default).
    variant:
        Model blocking arithmetic (``"exact"`` or ``"paper"``).
    damping / tolerance / max_iterations / divergence_threshold:
        Fixed-point solver knobs (model side).
    quality:
        Simulation window preset (``smoke`` / ``quick`` / ``full``);
        the explicit ``*_cycles`` fields override individual windows.
    engine:
        Simulation backend: ``"array"`` (the default, the compiled C
        loop) or ``"object"`` (the reference engine; name it where the
        array engine refuses, e.g. more than 2048 nodes).
    seed:
        Master seed of simulation runs (replication i uses seed + i).

    Exotic simulator knobs (buffer depth, injection slots, watchdog
    grace, ...) intentionally stay off the scenario — drop down to
    :class:`~repro.simulation.spec.SimSpec` for those.
    """

    topology: str = "star"
    order: int = 5
    algorithm: str = "enhanced_nbc"
    message_length: int = 32
    total_vcs: int = 6
    num_adaptive: int | None = None
    num_escape: int | None = None
    workload: str = "uniform"
    variant: str = "exact"
    damping: float = _DEFAULT_SOLVER.damping
    tolerance: float = _DEFAULT_SOLVER.tolerance
    max_iterations: int = _DEFAULT_SOLVER.max_iterations
    divergence_threshold: float = _DEFAULT_SOLVER.divergence_threshold
    quality: str = "quick"
    warmup_cycles: int | None = None
    measure_cycles: int | None = None
    drain_cycles: int | None = None
    engine: str = DEFAULT_ENGINE
    seed: int = 0

    def __post_init__(self) -> None:
        if self.topology not in ("star", "hypercube"):
            raise ConfigurationError(
                f"topology must be 'star' or 'hypercube', got {self.topology!r}"
            )
        if (self.num_adaptive is None) != (self.num_escape is None):
            raise ConfigurationError(
                "num_adaptive and num_escape must be given together or not at all"
            )
        if self.engine not in _SIM_ENGINES:
            raise ConfigurationError(
                f"engine must be one of {_SIM_ENGINES}, got {self.engine!r}"
            )
        if self.quality not in QUALITY_WINDOWS:
            raise ConfigurationError(
                f"unknown quality {self.quality!r}; expected one of "
                f"{sorted(QUALITY_WINDOWS)}"
            )
        # The one canonicalisation path: every spelling of a workload
        # normalises here, before it reaches ModelSpec, SimSpec or a
        # campaign key.
        object.__setattr__(self, "workload", WorkloadSpec.coerce(self.workload).canonical)

    # -- plain-dict round trip ------------------------------------------

    def to_params(self) -> dict[str, Any]:
        """Compact plain-dict form (defaulted fields omitted)."""
        out: dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value != f.default:
                out[f.name] = value
        return out

    @classmethod
    def from_params(cls, params: Mapping[str, Any]) -> "Scenario":
        """Rebuild from a plain dict, rejecting unknown keys."""
        known = {f.name for f in fields(cls)}
        unknown = set(params) - known
        if unknown:
            raise ConfigurationError(f"unknown Scenario parameters: {sorted(unknown)}")
        return cls(**dict(params))

    def fingerprint(self) -> str:
        """Deterministic content hash of this scenario's canonical form."""
        return canonical_key("scenario", self.to_params())

    def replace(self, **changes) -> "Scenario":
        """Copy with fields changed (re-canonicalised and re-validated)."""
        return replace(self, **changes)

    # -- spec construction (the rewire seam) ----------------------------

    def model_spec(self) -> ModelSpec:
        """The analytical-model spec this scenario describes."""
        return ModelSpec(
            topology=self.topology,
            order=self.order,
            message_length=self.message_length,
            total_vcs=self.total_vcs,
            variant=self.variant,
            num_adaptive=self.num_adaptive,
            num_escape=self.num_escape,
            workload=None if self.workload == "uniform" else self.workload,
            damping=self.damping,
            tolerance=self.tolerance,
            max_iterations=self.max_iterations,
            divergence_threshold=self.divergence_threshold,
        )

    @classmethod
    def from_model_spec(cls, spec: ModelSpec, **extra) -> "Scenario":
        """Scenario matching a ModelSpec (sim-side fields from ``extra``)."""
        return cls(
            topology=spec.topology,
            order=spec.order,
            message_length=spec.message_length,
            total_vcs=spec.total_vcs,
            variant=spec.variant,
            num_adaptive=spec.num_adaptive,
            num_escape=spec.num_escape,
            workload=spec.workload if spec.workload is not None else "uniform",
            damping=spec.damping,
            tolerance=spec.tolerance,
            max_iterations=spec.max_iterations,
            divergence_threshold=spec.divergence_threshold,
            **extra,
        )

    def sim_config(self, rate: float, *, seed: int | None = None) -> SimulationConfig:
        """The simulation configuration at one offered load."""
        windows = quality_windows(self.quality)
        for name in ("warmup_cycles", "measure_cycles", "drain_cycles"):
            value = getattr(self, name)
            if value is not None:
                windows[name] = value
        return SimulationConfig(
            message_length=self.message_length,
            generation_rate=rate,
            total_vcs=self.total_vcs,
            seed=self.seed if seed is None else seed,
            workload=None if self.workload == "uniform" else self.workload,
            engine=self.engine,
            **windows,
        )

    def sim_spec(self, rate: float, *, seed: int | None = None) -> SimSpec:
        """The simulation spec at one offered load."""
        return SimSpec(
            topology=self.topology,
            order=self.order,
            algorithm=self.algorithm,
            config=self.sim_config(rate, seed=seed),
        )

    @classmethod
    def from_sim_spec(cls, spec: SimSpec, **extra) -> "Scenario":
        """Scenario matching a SimSpec.

        Raises when the spec uses simulator knobs the scenario does not
        model (buffer depth, injection slots, ...) — those configurations
        stay on SimSpec.
        """
        config = spec.config
        representable = {
            "message_length", "generation_rate", "total_vcs", "seed",
            "workload", "traffic", "engine",
            "warmup_cycles", "measure_cycles", "drain_cycles",
        }
        exotic = [
            f.name
            for f in fields(SimulationConfig)
            if f.name not in representable and getattr(config, f.name) != f.default
        ]
        if exotic:
            raise ConfigurationError(
                "SimSpec uses simulator knobs a Scenario does not carry: "
                f"{sorted(exotic)}"
            )
        quality = quality_for_windows(
            config.warmup_cycles, config.measure_cycles, config.drain_cycles
        )
        windows: dict[str, int | None] = dict(
            warmup_cycles=None, measure_cycles=None, drain_cycles=None
        )
        if quality is None:
            quality = "quick"
            windows = dict(
                warmup_cycles=config.warmup_cycles,
                measure_cycles=config.measure_cycles,
                drain_cycles=config.drain_cycles,
            )
        return cls(
            topology=spec.topology,
            order=spec.order,
            algorithm=spec.algorithm,
            message_length=config.message_length,
            total_vcs=config.total_vcs,
            workload=config.workload_spec().canonical,
            quality=quality,
            engine=config.engine,
            seed=config.seed,
            **windows,
            **extra,
        )

    def bound_spec(self, *, buffer_depth: int | None = None):
        """The network-calculus bound spec this scenario describes.

        Star-only (the bound engine rides the explicit flow propagation);
        ``buffer_depth`` defaults to the simulator's per-VC buffer depth
        so model, simulator and bounds describe one switch.
        """
        from repro.bounds.network import BoundSpec
        from repro.simulation.config import SimulationConfig as _SimConfig

        if self.topology != "star":
            raise ConfigurationError(
                "network-calculus bounds are star-only; "
                f"got topology {self.topology!r}"
            )
        if buffer_depth is None:
            buffer_depth = _SimConfig.__dataclass_fields__["buffer_depth"].default
        return BoundSpec(
            order=self.order,
            message_length=self.message_length,
            total_vcs=self.total_vcs,
            workload=None if self.workload == "uniform" else self.workload,
            buffer_depth=buffer_depth,
        )

    # -- work-unit construction -----------------------------------------

    def model_unit(self, rate: float, *, kind: str = "model") -> WorkUnit:
        """One analytical work unit at ``rate`` (kinds: model family)."""
        return WorkUnit(kind=kind, params={**self.model_spec().to_params(), "rate": rate})

    def bound_unit(self, rate: float) -> WorkUnit:
        """One network-calculus bound work unit at ``rate``."""
        return WorkUnit(
            kind="bound", params={**self.bound_spec().to_params(), "rate": rate}
        )

    def sim_unit(self, rate: float, *, replications: int = 1) -> WorkUnit:
        """One simulation work unit at ``rate``.

        Its params always name ``engine``; ``replications > 1`` adds
        ``replications``, so the unit pools R seeds.
        """
        params = self.sim_spec(rate).to_params()
        if replications > 1:
            params["replications"] = replications
        return WorkUnit(kind="sim", params=params)

    # -- materialisation ------------------------------------------------

    def build_model(self, stats=None):
        """The live analytical model (see :meth:`ModelSpec.build`)."""
        return self.model_spec().build(stats=stats)

    def saturation_rate(self) -> float:
        """The model's predicted saturation rate for this scenario."""
        return self.build_model().saturation_rate()

    def rate_ladder(self, fractions: Sequence[float] = (0.2, 0.4, 0.6)) -> tuple[float, ...]:
        """Load points as fractions of the model's saturation rate."""
        sat = self.saturation_rate()
        if not math.isfinite(sat):
            raise ConfigurationError(
                "model does not saturate for this scenario; give explicit rates"
            )
        return tuple(round(f * sat, 6) for f in fractions)

    # -- execution paths ------------------------------------------------

    def model(
        self,
        rates: float | Sequence[float],
        *,
        workers: int = 1,
        cache_dir=None,
    ) -> ResultSet:
        """Analytical latency at the given rate(s) as a ResultSet."""
        rates = _rate_tuple(rates)
        units = [self.model_unit(r) for r in rates]
        result = run_units(units, workers=workers, cache_dir=cache_dir)
        return ResultSet(
            row_from_unit(u, r) for u, r in zip(result.units, result.results)
        )

    def bound(
        self,
        rates: float | Sequence[float],
        *,
        workers: int = 1,
        cache_dir=None,
    ) -> ResultSet:
        """Network-calculus delay/backlog bounds as ``bound`` rows.

        One row per rate with provenance ``bound``: ``latency`` is the
        mean-weighted worst-case delay bound, ``meta`` carries the
        worst-flow and backlog bounds.  A diverged burstiness fixed
        point (load beyond the bound engine's critical utilisation)
        yields an infinite bound — ``saturated=True``, serialised as
        JSONL null.  See ``docs/bounds.md``.
        """
        rates = _rate_tuple(rates)
        units = [self.bound_unit(r) for r in rates]
        result = run_units(units, workers=workers, cache_dir=cache_dir)
        return ResultSet(
            row_from_unit(u, r) for u, r in zip(result.units, result.results)
        )

    def bound_divergence_rate(self) -> float:
        """Smallest rate at which the bound engine's fixed point diverges."""
        from repro.bounds.analysis import divergence_rate

        return divergence_rate(self.bound_spec())

    def simulate(
        self,
        rates: float | Sequence[float],
        *,
        replications: int = 1,
        workers: int = 1,
        cache_dir=None,
    ) -> ResultSet:
        """Simulated latency at the given rate(s) as a ResultSet.

        With ``replications > 1`` every rate becomes one pooled row
        (seeds ``seed .. seed + R - 1``; on the array engine the whole
        batch advances in one vectorized process).
        ``workers > 1`` runs the rate points on that many processes.
        """
        rates = _rate_tuple(rates)
        units = [self.sim_unit(r, replications=replications) for r in rates]
        result = run_units(units, workers=workers, cache_dir=cache_dir)
        return ResultSet(
            row_from_unit(u, r) for u, r in zip(result.units, result.results)
        )

    def sweep(
        self,
        axes: Mapping[str, Any],
        *,
        replications: int = 1,
        workers: int = 1,
        store=None,
        resume: bool = False,
        cache_dir=None,
        progress=None,
    ) -> ResultSet:
        """Campaign over scenario axes; one ResultSet, mixed provenance.

        ``axes`` maps axis names to value collections (sequences, comma
        strings or ``lo:hi:count`` linspace declarations — the campaign
        grid grammar).  Axis names are Scenario fields plus two specials:

        * ``rate`` — the offered load (required);
        * ``engine`` — may mix the pseudo-engines ``"model"``
          (analytical rows) and ``"bound"`` (network-calculus bound
          rows) with simulation backends (``"object"`` / ``"array"``),
          so one sweep returns all three provenances side by side.
          Omitted, the sweep is analytical-only.

        The cartesian product expands with the last axis varying
        fastest (campaign-grid convention); every point becomes one work
        unit keyed by the same content hashes as historical campaign
        stores, so ``store=``/``resume=`` interoperate with existing
        JSONL stores.

        With the defaults (no store, no resume, no cache, ``workers=1``)
        the sweep runs in this process and fuses compatible array-engine
        sim units into batched simulations.  ``workers > 1`` dispatches
        unit by unit to that many worker processes instead.  ``workers``
        never enters unit keys — it is a resource knob, and results are
        identical for every value.
        """
        if "rate" not in axes:
            raise ConfigurationError("sweep needs a 'rate' axis")
        scenario_fields = {f.name for f in fields(Scenario)}
        names = list(axes)
        for name in names:
            if name not in scenario_fields and name not in ("rate", "engine"):
                raise ConfigurationError(
                    f"unknown sweep axis {name!r}; expected a Scenario field, "
                    "'rate' or 'engine'"
                )
        values = [parse_axis_values(axes[name]) for name in names]
        for name, vals in zip(names, values):
            if name == "engine":
                bad = [
                    v
                    for v in vals
                    if v not in (_MODEL_ENGINE, _BOUND_ENGINE, *_SIM_ENGINES)
                ]
                if bad:
                    raise ConfigurationError(
                        f"unknown engine axis values {bad}; expected 'model', "
                        "'bound', 'object' or 'array'"
                    )
        units: list[WorkUnit] = []
        for combo in itertools.product(*values):
            point = dict(zip(names, combo))
            engine = point.pop("engine", _MODEL_ENGINE)
            rate = float(point.pop("rate"))
            scenario = self.replace(**point) if point else self
            if engine == _MODEL_ENGINE:
                units.append(scenario.model_unit(rate))
            elif engine == _BOUND_ENGINE:
                units.append(scenario.bound_unit(rate))
            else:
                if engine != scenario.engine:
                    scenario = scenario.replace(engine=engine)
                units.append(scenario.sim_unit(rate, replications=replications))
        if store is None and not resume and workers == 1 and cache_dir is None:
            # In-process sweep: fuse compatible array-engine sim units so
            # an entire rate-ladder × seed grid advances as one batched
            # SimState (counts match per-unit dispatch; float sums can
            # differ in the last bits, since companions perturb the order
            # completions accumulate in).  Stores, resume, caching and
            # process pools keep the per-unit campaign path.
            from repro.campaign.kinds import run_units_fused

            fused = run_units_fused(units, progress=progress)
            return ResultSet(
                row_from_unit(u, r) for u, r in zip(units, fused)
            )
        result = run_units(
            units,
            workers=workers,
            store=store,
            resume=resume,
            cache_dir=cache_dir,
            progress=progress,
        )
        return ResultSet(
            row_from_unit(u, r) for u, r in zip(result.units, result.results)
        )

    def validate(
        self,
        workloads: Sequence[str] | None = None,
        *,
        load_fractions: Sequence[float] = (0.2, 0.4, 0.6),
        replications: int = 1,
        hops: bool = False,
        workers: int = 1,
        tolerance: float | None = None,
        cache_dir=None,
    ) -> ResultSet:
        """Model-vs-sim accuracy rows for this scenario's workload(s).

        Delegates to :func:`repro.validation.workloads.validate_workloads`
        (the campaign-backed validation driver) and flattens every
        workload's paired model/sim points into one ResultSet; use
        :meth:`ResultSet.comparisons` for the per-workload error
        aggregates.  ``workloads=None`` validates this scenario's own
        workload.
        """
        from repro.validation.workloads import validate_workloads

        records = validate_workloads(
            tuple(workloads) if workloads is not None else (self.workload,),
            scenario=self,
            load_fractions=tuple(load_fractions),
            replications=replications,
            hops=hops,
            workers=workers,
            tolerance=tolerance,
            cache_dir=cache_dir,
        )
        out = ResultSet()
        for record in records:
            if record.rows is not None:
                out = out + record.rows
        return out


def _rate_tuple(rates: float | Sequence[float]) -> tuple[float, ...]:
    if isinstance(rates, (int, float)):
        return (float(rates),)
    rates = tuple(float(r) for r in rates)
    if not rates:
        raise ConfigurationError("need at least one rate")
    return rates
