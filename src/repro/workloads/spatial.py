"""Spatial traffic patterns: per-source destination distributions.

Every pattern exposes the same two views of one distribution:

* :meth:`SpatialPattern.destination` — draw one destination for a
  message (the simulator's view);
* :meth:`SpatialPattern.probs` — the full destination probability row
  for a source (the analytical model's view, from which the workload
  rate matrix and per-channel flows are derived).

Both views come from the same object, so the model and the simulator can
never disagree about what a workload means.  Patterns that depend only on
the node count (uniform, hotspot, permutation, shift, trace) can be built
from ``num_nodes`` alone; distance-aware patterns (locality) need the
topology.
"""

from __future__ import annotations

import abc
import json
from pathlib import Path
from typing import Any, Callable, Mapping

import numpy as np

from repro.utils.exceptions import ConfigurationError

__all__ = [
    "SpatialPattern",
    "UniformSpatial",
    "HotspotSpatial",
    "LocalitySpatial",
    "PermutationSpatial",
    "ShiftSpatial",
    "TraceSpatial",
    "make_spatial",
    "available_spatial",
    "spatial_param_names",
]


class SpatialPattern(abc.ABC):
    """Chooses a destination for each generated message."""

    name: str = "abstract"

    def __init__(self, num_nodes: int):
        if num_nodes < 2:
            raise ConfigurationError(
                f"{self.name} traffic needs >= 2 nodes, got {num_nodes}"
            )
        self.num_nodes = num_nodes

    @abc.abstractmethod
    def destination(self, src: int, rng: np.random.Generator) -> int:
        """A destination node, guaranteed different from ``src``."""

    @abc.abstractmethod
    def probs(self, src: int) -> np.ndarray:
        """Destination probabilities from ``src`` (length N, 0 at ``src``)."""

    def destinations_block(
        self, src: int, k: int, rng: np.random.Generator
    ) -> list[int]:
        """The next ``k`` destinations for ``src``, consumed as one block.

        Exactly equivalent to ``[self.destination(src, rng) for _ in
        range(k)]`` — same values, same RNG stream consumption — so the
        array backend's block-buffered generation reproduces the
        one-at-a-time destination stream bit for bit regardless of block
        size.  Subclasses override only to batch the generator calls.
        """
        return [self.destination(src, rng) for _ in range(k)]


class UniformSpatial(SpatialPattern):
    """Uniform over the other N-1 nodes — the paper's assumption (a)."""

    name = "uniform"

    def destination(self, src: int, rng: np.random.Generator) -> int:
        d = int(rng.integers(self.num_nodes - 1))
        return d if d < src else d + 1

    def destinations_block(
        self, src: int, k: int, rng: np.random.Generator
    ) -> list[int]:
        """Vectorized block draw (one bounded-integers call for k draws).

        ``Generator.integers(n, size=k)`` applies Lemire rejection per
        element in order, consuming the Philox bitstream exactly like k
        scalar calls, so the block reproduces the scalar destination
        stream bit for bit (asserted by the workload-block parity tests).
        """
        if k <= 0:
            return []
        d = rng.integers(self.num_nodes - 1, size=k)
        return np.where(d < src, d, d + 1).tolist()

    def probs(self, src: int) -> np.ndarray:
        p = np.full(self.num_nodes, 1.0 / (self.num_nodes - 1))
        p[src] = 0.0
        return p


class HotspotSpatial(SpatialPattern):
    """Uniform traffic with extra probability mass on one or more hot nodes.

    With probability ``fraction`` the destination is drawn uniformly from
    the hot set (unless the source is itself hot); otherwise the uniform
    pattern applies.  ``nodes`` consecutive nodes starting at ``hotspot``
    (mod N) form the hot set.
    """

    name = "hotspot"

    def __init__(
        self,
        num_nodes: int,
        hotspot: int = 0,
        fraction: float = 0.1,
        nodes: int = 1,
    ):
        super().__init__(num_nodes)
        if not (0 <= hotspot < num_nodes):
            raise ConfigurationError(f"hotspot node {hotspot} out of range")
        if not (0.0 <= fraction <= 1.0):
            raise ConfigurationError(
                f"hotspot fraction must be in [0,1], got {fraction}"
            )
        if not (1 <= nodes <= num_nodes):
            raise ConfigurationError(
                f"hotspot nodes must be in [1, {num_nodes}], got {nodes}"
            )
        self._uniform = UniformSpatial(num_nodes)
        self.hotspot = hotspot
        self.fraction = fraction
        self.hot_set = tuple((hotspot + i) % num_nodes for i in range(nodes))
        self._hot_lookup = frozenset(self.hot_set)

    def destination(self, src: int, rng: np.random.Generator) -> int:
        if src not in self._hot_lookup and rng.random() < self.fraction:
            if len(self.hot_set) == 1:
                return self.hotspot
            return self.hot_set[int(rng.integers(len(self.hot_set)))]
        return self._uniform.destination(src, rng)

    def probs(self, src: int) -> np.ndarray:
        p = self._uniform.probs(src)
        if src in self._hot_lookup:
            return p
        p *= 1.0 - self.fraction
        for h in self.hot_set:
            p[h] += self.fraction / len(self.hot_set)
        return p


class LocalitySpatial(SpatialPattern):
    """Destination probability decays geometrically with graph distance.

    ``P(t | s)`` is proportional to ``decay ** d(s, t)`` over the star
    (or hypercube) distance; ``decay = 1`` reduces to uniform.  Requires
    the topology, so it is only constructible through
    :func:`make_spatial` with a ``topology`` argument.
    """

    name = "locality"

    def __init__(self, topology, decay: float = 0.5):
        if topology is None:
            raise ConfigurationError(
                "locality traffic needs the topology (distances); "
                "build it through make_spatial(..., topology=...)"
            )
        super().__init__(topology.num_nodes)
        if not (0.0 < decay <= 1.0):
            raise ConfigurationError(f"locality decay must be in (0,1], got {decay}")
        self.topology = topology
        self.decay = decay
        self._rows: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def _row(self, src: int) -> tuple[np.ndarray, np.ndarray]:
        cached = self._rows.get(src)
        if cached is None:
            n = self.num_nodes
            topo = self.topology
            w = np.array(
                [
                    0.0 if t == src else self.decay ** topo.distance(src, t)
                    for t in range(n)
                ]
            )
            p = w / w.sum()
            cached = (p, np.cumsum(p))
            self._rows[src] = cached
        return cached

    def destination(self, src: int, rng: np.random.Generator) -> int:
        _, cdf = self._row(src)
        return int(np.searchsorted(cdf, rng.random(), side="right"))

    def probs(self, src: int) -> np.ndarray:
        return self._row(src)[0].copy()


class PermutationSpatial(SpatialPattern):
    """Each node sends all traffic to one fixed partner (derangement).

    A seeded random derangement of the nodes; the adversarial pattern for
    adaptive routing studies (no destination spreading at all).  The seed
    is part of the workload, independent of the simulation master seed.
    """

    name = "permutation"

    def __init__(self, num_nodes: int, seed: int = 0):
        super().__init__(num_nodes)
        self.seed = seed
        rng = np.random.default_rng(seed)
        self._partner = self._derangement(num_nodes, rng)

    @staticmethod
    def _derangement(n: int, rng: np.random.Generator) -> np.ndarray:
        while True:
            p = rng.permutation(n)
            if not np.any(p == np.arange(n)):
                return p

    def destination(self, src: int, rng: np.random.Generator) -> int:
        return int(self._partner[src])

    def destinations_block(
        self, src: int, k: int, rng: np.random.Generator
    ) -> list[int]:
        return [int(self._partner[src])] * max(k, 0)

    def probs(self, src: int) -> np.ndarray:
        p = np.zeros(self.num_nodes)
        p[int(self._partner[src])] = 1.0
        return p


class ShiftSpatial(SpatialPattern):
    """The cyclic-shift permutation family: ``dst = (src + offset) mod N``."""

    name = "shift"

    def __init__(self, num_nodes: int, offset: int = 1):
        super().__init__(num_nodes)
        if offset % num_nodes == 0:
            raise ConfigurationError(
                f"shift offset {offset} maps nodes to themselves (mod {num_nodes})"
            )
        self.offset = offset

    def destination(self, src: int, rng: np.random.Generator) -> int:
        return (src + self.offset) % self.num_nodes

    def destinations_block(
        self, src: int, k: int, rng: np.random.Generator
    ) -> list[int]:
        return [(src + self.offset) % self.num_nodes] * max(k, 0)

    def probs(self, src: int) -> np.ndarray:
        p = np.zeros(self.num_nodes)
        p[(src + self.offset) % self.num_nodes] = 1.0
        return p


class TraceSpatial(SpatialPattern):
    """Replay destinations from a recorded trace of (src, dst) pairs.

    The trace file is JSON: either a plain list ``[[src, dst], ...]`` or
    an object ``{"pairs": [[src, dst], ...]}``.  Each source cycles
    through its recorded destinations in order; sources absent from the
    trace fall back to uniform.  The model sees the per-source empirical
    destination frequencies.  The cursors make an instance stateful, so
    independent replications each need their own instance.

    Note: campaign content hashes key on the trace *path*, not its
    contents — edit-in-place invalidation is the operator's job.
    """

    name = "trace"

    def __init__(self, num_nodes: int, path: str = ""):
        super().__init__(num_nodes)
        if not path:
            raise ConfigurationError("trace traffic needs a path= parameter")
        self.path = path
        try:
            data = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ConfigurationError(f"cannot read trace file {path!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"trace file {path!r} is not valid JSON: {exc}") from exc
        pairs = data.get("pairs") if isinstance(data, dict) else data
        if not isinstance(pairs, list) or not pairs:
            raise ConfigurationError(f"trace file {path!r} holds no (src, dst) pairs")
        self._dsts: dict[int, list[int]] = {}
        for item in pairs:
            if (
                not isinstance(item, (list, tuple))
                or len(item) != 2
                or not all(isinstance(x, int) for x in item)
            ):
                raise ConfigurationError(
                    f"trace entries must be [src, dst] integer pairs, got {item!r}"
                )
            s, d = item
            if not (0 <= s < num_nodes and 0 <= d < num_nodes) or s == d:
                raise ConfigurationError(
                    f"trace pair ({s}, {d}) invalid for a {num_nodes}-node network"
                )
            self._dsts.setdefault(s, []).append(d)
        self._cursor: dict[int, int] = {s: 0 for s in self._dsts}
        self._uniform = UniformSpatial(num_nodes)

    def destination(self, src: int, rng: np.random.Generator) -> int:
        dsts = self._dsts.get(src)
        if dsts is None:
            return self._uniform.destination(src, rng)
        i = self._cursor[src]
        self._cursor[src] = (i + 1) % len(dsts)
        return dsts[i]

    def probs(self, src: int) -> np.ndarray:
        dsts = self._dsts.get(src)
        if dsts is None:
            return self._uniform.probs(src)
        p = np.zeros(self.num_nodes)
        for d in dsts:
            p[d] += 1.0
        return p / p.sum()


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

#: name -> (factory(num_nodes, topology, params) -> pattern, allowed params)
_REGISTRY: dict[str, tuple[Callable, frozenset[str]]] = {}


def _register(name: str, allowed: frozenset[str], factory: Callable) -> None:
    _REGISTRY[name] = (factory, allowed)


_register("uniform", frozenset(), lambda n, topo, p: UniformSpatial(n))
_register(
    "hotspot",
    frozenset({"hotspot", "fraction", "nodes"}),
    lambda n, topo, p: HotspotSpatial(
        n,
        hotspot=int(p.get("hotspot", 0)),
        fraction=float(p.get("fraction", 0.1)),
        nodes=int(p.get("nodes", 1)),
    ),
)
_register(
    "locality",
    frozenset({"decay"}),
    lambda n, topo, p: LocalitySpatial(topo, decay=float(p.get("decay", 0.5))),
)
_register(
    "permutation",
    frozenset({"seed"}),
    lambda n, topo, p: PermutationSpatial(n, seed=int(p.get("seed", 0))),
)
_register(
    "shift",
    frozenset({"offset"}),
    lambda n, topo, p: ShiftSpatial(n, offset=int(p.get("offset", 1))),
)
_register(
    "trace",
    frozenset({"path"}),
    lambda n, topo, p: TraceSpatial(n, path=str(p.get("path", ""))),
)


def available_spatial() -> tuple[str, ...]:
    """Registered spatial-pattern names, alphabetical."""
    return tuple(sorted(_REGISTRY))


def spatial_param_names(name: str) -> frozenset[str]:
    """Allowed parameter names for pattern ``name`` (raises if unknown)."""
    if name not in _REGISTRY:
        raise ConfigurationError(
            f"unknown spatial pattern {name!r}; expected one of "
            f"{', '.join(available_spatial())}"
        )
    return _REGISTRY[name][1]


def make_spatial(
    name: str,
    *,
    num_nodes: int | None = None,
    topology=None,
    params: Mapping[str, Any] | None = None,
) -> SpatialPattern:
    """Build a spatial pattern by name, rejecting unknown parameters."""
    allowed = spatial_param_names(name)
    params = dict(params or {})
    unknown = set(params) - allowed
    if unknown:
        raise ConfigurationError(
            f"unknown parameters for spatial pattern {name!r}: {sorted(unknown)}; "
            f"allowed: {sorted(allowed) or '(none)'}"
        )
    if num_nodes is None:
        if topology is None:
            raise ConfigurationError(
                "make_spatial needs num_nodes or a topology to size the pattern"
            )
        num_nodes = topology.num_nodes
    factory, _ = _REGISTRY[name]
    return factory(num_nodes, topology, params)
