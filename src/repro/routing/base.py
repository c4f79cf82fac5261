"""Routing-algorithm interface used by the wormhole simulator.

An algorithm answers two questions per header decision:

1. which output *ports* may the header use (:meth:`RoutingAlgorithm.ports`),
2. which *virtual channels* on those ports are eligible given the
   message's deadlock-avoidance state (:meth:`RoutingAlgorithm.eligible`);

and maintains the per-message escape floor via
:meth:`RoutingAlgorithm.advance_floor` as hops are taken.

Eligibility is expressed with :class:`EligibleSet` — a (possibly empty)
range of class-a indices plus a range of class-b indices — so the
simulator's allocator and the analytical model share one definition of
"the channels whose occupation blocks a message" (the paper's equations
(9)-(11)).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.routing.vc_classes import VcConfig
from repro.topology.base import Topology
from repro.utils.exceptions import ConfigurationError

__all__ = [
    "EligibleSet",
    "MessageRouteState",
    "SelectionPolicy",
    "RoutingAlgorithm",
]


class SelectionPolicy(str, Enum):
    """How a header chooses among free eligible virtual channels.

    * ``ADAPTIVE_FIRST`` — prefer a random free class-a channel, falling
      back to the lowest free class-b channel (the Enhanced-Nbc policy:
      adaptive channels carry traffic, the escape layer absorbs blocking);
    * ``LOWEST_ESCAPE`` — lowest eligible class-b first (pure NHop style);
    * ``RANDOM`` — uniform over all free eligible channels (the bonus-card
      balancing described in the paper for Nbc).
    """

    ADAPTIVE_FIRST = "adaptive_first"
    LOWEST_ESCAPE = "lowest_escape"
    RANDOM = "random"


@dataclass(frozen=True)
class EligibleSet:
    """Virtual channels a message may legally request on one port."""

    adaptive: range
    escape: range

    @property
    def count(self) -> int:
        """Total eligible VCs (the paper's per-channel eligibility E)."""
        return len(self.adaptive) + len(self.escape)

    def indices(self) -> tuple[int, ...]:
        """All eligible VC indices, class-a first."""
        return (*self.adaptive, *self.escape)

    def __contains__(self, vc_index: int) -> bool:
        return vc_index in self.adaptive or vc_index in self.escape


@dataclass
class MessageRouteState:
    """Per-message deadlock-avoidance state carried across hops.

    Of these fields :meth:`RoutingAlgorithm.eligible` may read only
    ``escape_floor``; the hop counters are bookkeeping for
    :meth:`RoutingAlgorithm.advance_floor` and diagnostics.
    """

    #: Lowest escape class currently usable (paper: negative hops taken,
    #: raised further by any bonus-card classes already spent).
    escape_floor: int = 0
    #: Hops completed so far (diagnostics only).
    hops_taken: int = 0
    #: Negative hops completed so far (diagnostics only).
    negative_hops: int = 0


class RoutingAlgorithm(abc.ABC):
    """A deadlock-free minimal wormhole routing algorithm."""

    #: Short identifier used by the registry and result tables.
    name: str = "abstract"

    def __init__(self, policy: SelectionPolicy | str = SelectionPolicy.ADAPTIVE_FIRST):
        self.policy = SelectionPolicy(policy)

    # -- configuration -------------------------------------------------

    @abc.abstractmethod
    def make_vc_config(self, total_vcs: int, topology: Topology) -> VcConfig:
        """Split ``total_vcs`` into class-a/class-b for this algorithm."""

    def validate(self, cfg: VcConfig, topology: Topology) -> None:
        """Reject configurations that would not be deadlock-free."""
        need = topology.min_escape_classes()
        if cfg.num_escape < need:
            raise ConfigurationError(
                f"{self.name} on {topology.name} needs >= {need} escape "
                f"classes, got {cfg.num_escape}"
            )

    # -- per-decision queries -------------------------------------------

    def ports(self, topology: Topology, cur: int, dst: int) -> tuple[int, ...]:
        """Output ports the header may request (default: all profitable)."""
        return topology.profitable_ports(cur, dst)

    @abc.abstractmethod
    def eligible(
        self,
        cfg: VcConfig,
        d_remaining: int,
        hop_negative: bool,
        state: MessageRouteState,
    ) -> EligibleSet:
        """Eligible VCs on any profitable port for the current hop.

        Contract: the answer may depend only on ``cfg``, ``d_remaining``,
        ``hop_negative`` and ``state.escape_floor`` — never on
        ``state.hops_taken`` or ``state.negative_hops``.  The array
        backend relies on this: it tabulates ``eligible()`` once per
        (distance, colour, floor) at construction, treating a
        :class:`ConfigurationError` as "no such state", and expects both
        returned ranges to be contiguous.
        """

    def advance_floor(
        self,
        cfg: VcConfig,
        state: MessageRouteState,
        used_vc_index: int,
        hop_negative: bool,
    ) -> None:
        """Update ``state`` after the header claims ``used_vc_index``.

        The floor becomes the used escape class (or stays, for class-a
        hops) plus one across negative hops — the monotonicity invariant
        that makes the escape layer deadlock-free.  The array backend
        inlines exactly this arithmetic, so it refuses algorithms that
        override the method (they run on ``engine='object'``).
        """
        used_class = cfg.class_of_index(used_vc_index)
        base = state.escape_floor if used_class is None else used_class
        state.escape_floor = base + (1 if hop_negative else 0)
        state.hops_taken += 1
        state.negative_hops += 1 if hop_negative else 0

    # -- selection -------------------------------------------------------

    def order_candidates(
        self,
        eligible: EligibleSet,
        free: tuple[int, ...],
        rng: np.random.Generator,
    ) -> tuple[int, ...]:
        """Free eligible VC indices of one port, in preference order."""
        free_adaptive = tuple(v for v in free if v in eligible.adaptive)
        free_escape = tuple(v for v in free if v in eligible.escape)
        if self.policy is SelectionPolicy.ADAPTIVE_FIRST:
            if free_adaptive:
                fa = list(free_adaptive)
                rng.shuffle(fa)
                return (*fa, *free_escape)
            return free_escape
        if self.policy is SelectionPolicy.LOWEST_ESCAPE:
            return (*free_escape, *free_adaptive)
        both = [*free_adaptive, *free_escape]
        rng.shuffle(both)
        return tuple(both)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(policy={self.policy.value})"
