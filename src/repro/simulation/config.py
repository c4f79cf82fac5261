"""Simulation configuration with eager validation."""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.utils.exceptions import ConfigurationError
from repro.workloads.spec import WorkloadSpec

__all__ = ["DEFAULT_ENGINE", "LEGACY_ENGINE", "SimulationConfig"]

#: The simulation backend every default run uses: the compiled array
#: engine.  The object engine stays the readable reference and test
#: oracle, and the engine to name where the array engine refuses
#: (N > 2048, long messages, deep buffers, ``advance_floor`` overrides,
#: no C compiler); each refusal is a ConfigurationError naming it.
DEFAULT_ENGINE = "array"

#: What a flat ``sim`` params dict without ``engine`` means.  Every
#: ``sim`` key names its engine now; keys that omit it were written when
#: the object engine was the default, so they describe object runs.
LEGACY_ENGINE = "object"


@dataclass(frozen=True)
class SimulationConfig:
    """Parameters of one wormhole simulation run.

    The defaults mirror the paper's validation set-up; experiment drivers
    override ``generation_rate``, ``message_length`` and the VC counts.

    Attributes
    ----------
    message_length:
        M, flits per message (the unit of switching).
    generation_rate:
        lambda_g, messages per cycle generated by each node (Poisson).
    total_vcs:
        V, virtual channels per physical channel.
    buffer_depth:
        Flit capacity of each virtual-channel input buffer.  The default
        of 2 lets an uncontended worm stream one flit per cycle (a
        single-flit buffer inserts a pipeline bubble every other cycle),
        matching the model's ``M + hops`` transmission term.
    injection_slots:
        Messages a node may be injecting concurrently; ``None`` means V,
        matching the analytical model's per-VC source queues (Eq. 16).
    ejection_rate:
        Flits per cycle the PE absorbs per message; ``None`` = unlimited
        (the model's contention-free ejection assumption (c)).
    warmup_cycles / measure_cycles:
        Statistics ignore messages generated before the warmup ends; the
        run stops at ``warmup_cycles + measure_cycles``.
    drain_cycles:
        Extra cycles after the measurement window during which in-flight
        measured messages may still complete (late completions are
        counted; new generations are not).
    batches:
        Batch count for batch-means confidence intervals.
    seed:
        Master seed for all random streams.
    traffic:
        Legacy workload knob: a spatial-pattern name (``uniform``,
        ``hotspot``, ...) or any full workload string.  Superseded by
        ``workload``; kept so existing configs and campaign stores keep
        their content-hash keys.
    workload:
        Full workload in the ``spatial[+temporal]`` grammar of
        :class:`repro.workloads.WorkloadSpec`, e.g.
        ``"hotspot(fraction=0.2)+onoff(duty=0.25,burst=8)"``.  ``None``
        falls back to ``traffic``.  Setting both to non-defaults is an
        error.
    watchdog_grace:
        Cycles without any flit movement/allocation before the engine
        declares deadlock; ``None`` uses the engine default (20,000).
        Long-horizon campaign runs near saturation can legitimately
        stall longer than the default and should raise this.
    engine:
        Simulation backend: ``"array"`` (the default, :data:`DEFAULT_ENGINE`:
        a compiled C cycle loop over structure-of-arrays state, able to
        batch replications; needs a C compiler) or ``"object"`` (the
        reference object-per-flit engine, bit-reproducible per seed and
        statistically equivalent).  Where the array engine refuses a
        configuration it raises a ConfigurationError naming
        ``engine='object'``.  See ``docs/simulation.md``.
    """

    message_length: int = 32
    generation_rate: float = 0.001
    total_vcs: int = 6
    buffer_depth: int = 2
    injection_slots: int | None = None
    ejection_rate: int | None = None
    warmup_cycles: int = 4_000
    measure_cycles: int = 16_000
    drain_cycles: int = 20_000
    batches: int = 8
    seed: int = 0
    traffic: str = "uniform"
    workload: str | None = None
    sample_interval: int = 97
    watchdog_grace: int | None = None
    engine: str = DEFAULT_ENGINE

    def __post_init__(self) -> None:
        if self.message_length < 1:
            raise ConfigurationError(f"message_length must be >= 1, got {self.message_length}")
        if not (0.0 <= self.generation_rate < 1.0):
            raise ConfigurationError(
                f"generation_rate must be in [0, 1) messages/cycle, got {self.generation_rate}"
            )
        if self.total_vcs < 1:
            raise ConfigurationError(f"total_vcs must be >= 1, got {self.total_vcs}")
        if self.buffer_depth < 1:
            raise ConfigurationError(f"buffer_depth must be >= 1, got {self.buffer_depth}")
        if self.injection_slots is not None and self.injection_slots < 1:
            raise ConfigurationError("injection_slots must be >= 1 or None")
        if self.ejection_rate is not None and self.ejection_rate < 1:
            raise ConfigurationError("ejection_rate must be >= 1 or None")
        if self.warmup_cycles < 0 or self.measure_cycles < 1 or self.drain_cycles < 0:
            raise ConfigurationError("cycle windows must be non-negative (measure >= 1)")
        if self.batches < 1:
            raise ConfigurationError(f"batches must be >= 1, got {self.batches}")
        if self.sample_interval < 1:
            raise ConfigurationError("sample_interval must be >= 1")
        if self.watchdog_grace is not None and self.watchdog_grace < 1:
            raise ConfigurationError("watchdog_grace must be >= 1 or None")
        if self.engine not in ("object", "array"):
            raise ConfigurationError(
                f"engine must be 'object' or 'array', got {self.engine!r}"
            )
        if self.workload is not None and self.traffic != "uniform":
            raise ConfigurationError(
                "set either the legacy 'traffic' field or 'workload', not both"
            )
        if self.workload is not None:
            # Canonicalise (as ModelSpec does) so equivalent spellings
            # produce identical campaign content-hash keys.
            object.__setattr__(
                self, "workload", WorkloadSpec.parse(self.workload).canonical
            )
        self.workload_spec()  # eager validation of the workload string

    def workload_spec(self) -> WorkloadSpec:
        """The parsed workload driving traffic generation.

        ``workload`` wins when set; otherwise the legacy ``traffic``
        string (a bare pattern name or any full workload expression) is
        interpreted under the same grammar.
        """
        return WorkloadSpec.parse(self.workload if self.workload is not None else self.traffic)

    @property
    def horizon(self) -> int:
        """Last simulated cycle (exclusive of drain)."""
        return self.warmup_cycles + self.measure_cycles

    def effective_injection_slots(self) -> int:
        """Concurrent injections per node (defaults to V)."""
        return self.total_vcs if self.injection_slots is None else self.injection_slots

    def with_rate(self, generation_rate: float) -> "SimulationConfig":
        """Copy with a different offered load (sweep helper)."""
        return replace(self, generation_rate=generation_rate)

    def with_seed(self, seed: int) -> "SimulationConfig":
        """Copy with a different master seed (replication helper)."""
        return replace(self, seed=seed)
