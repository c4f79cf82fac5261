"""Plain-data simulation specifications (topology + algorithm + config).

The campaign layer ships work units between processes as plain dicts;
:class:`SimSpec` is the simulation-side counterpart of
:class:`repro.core.spec.ModelSpec` — it names a topology, a routing
algorithm from the registry, and a :class:`SimulationConfig`, and can
round-trip through a flat dict and rebuild the runnable pieces.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import Any, Mapping

from repro.simulation.config import LEGACY_ENGINE, SimulationConfig
from repro.simulation.metrics import SimulationResult
from repro.utils.exceptions import ConfigurationError

__all__ = ["SimSpec"]


@lru_cache(maxsize=8)
def _make_topology(kind: str, order: int):
    """Shared per-(kind, order) topology instance (read-only in runs)."""
    if kind == "star":
        from repro.topology.star import StarGraph

        return StarGraph(order)
    if kind == "hypercube":
        from repro.topology.hypercube import Hypercube

        return Hypercube(order)
    raise ConfigurationError(f"unknown topology {kind!r}; expected 'star' or 'hypercube'")


@dataclass(frozen=True)
class SimSpec:
    """One simulation run as plain data.

    ``topology``/``order`` select the network, ``algorithm`` is a
    routing-registry name, and ``config`` carries every engine knob.
    The flat-dict form inlines the config fields next to the topology
    keys, omitting defaults for compact campaign keys — except
    ``engine``, which it always names, so no key lets a result from one
    engine pose as the other's.
    """

    topology: str = "star"
    order: int = 4
    algorithm: str = "enhanced_nbc"
    config: SimulationConfig = field(default_factory=SimulationConfig)

    # -- plain-dict round trip ------------------------------------------

    def to_params(self) -> dict[str, Any]:
        """Flat dict of topology keys, ``engine`` and non-default config fields."""
        out: dict[str, Any] = {
            "topology": self.topology,
            "order": self.order,
            "algorithm": self.algorithm,
        }
        for f in fields(SimulationConfig):
            value = getattr(self.config, f.name)
            if value != f.default or f.name == "engine":
                out[f.name] = value
        return out

    @classmethod
    def from_params(cls, params: Mapping[str, Any]) -> "SimSpec":
        """Rebuild from the flat-dict form, rejecting unknown keys.

        A dict without ``engine`` predates engine-naming keys and means
        :data:`~repro.simulation.config.LEGACY_ENGINE` (object).
        """
        params = {"engine": LEGACY_ENGINE, **params}
        topology = params.pop("topology", "star")
        order = params.pop("order", 4)
        algorithm = params.pop("algorithm", "enhanced_nbc")
        known = {f.name for f in fields(SimulationConfig)}
        unknown = set(params) - known
        if unknown:
            raise ConfigurationError(f"unknown SimSpec parameters: {sorted(unknown)}")
        return cls(
            topology=topology,
            order=order,
            algorithm=algorithm,
            config=SimulationConfig(**params),
        )

    def scenario(self, **extra):
        """The :class:`~repro.api.scenario.Scenario` this spec describes.

        Raises when the config uses simulator knobs the scenario does
        not carry (see :meth:`Scenario.from_sim_spec`).
        """
        from repro.api.scenario import Scenario

        return Scenario.from_sim_spec(self, **extra)

    # -- materialisation -------------------------------------------------

    def build(self):
        """Return ``(topology, algorithm, config)`` ready to simulate."""
        from repro.routing.registry import make_algorithm

        return _make_topology(self.topology, self.order), make_algorithm(self.algorithm), self.config

    def run(self) -> SimulationResult:
        """Build and run the simulation on the backend named by the config."""
        from repro.simulation.backends import simulate

        topo, algo, config = self.build()
        return simulate(topo, algo, config)

    def run_batch(self, replications: int, seeds=None) -> list[SimulationResult]:
        """Build and run R replications (see :func:`simulate_batch`)."""
        from repro.simulation.backends import simulate_batch

        topo, algo, config = self.build()
        return simulate_batch(topo, algo, config, replications, seeds=seeds)
