"""Flit-level discrete-event simulator for wormhole-switched networks.

This is the validation substrate of the paper (section 5): a cycle-driven
simulator that "mimics the behaviour of the described routing algorithms
in the network at the flit level", under the same assumptions as the
analysis — fixed M-flit messages, Poisson sources of rate lambda_g
messages/cycle, uniform destinations, V virtual channels per physical
channel multiplexed flit-by-flit, one-cycle flit transfers, and ejection
into the local PE on arrival.

Two backends implement the same cycle semantics (``docs/simulation.md``):

* ``engine="object"`` — the reference object-per-flit engine
  (:mod:`repro.simulation.engine`), bit-reproducible per seed;
* ``engine="array"`` — structure-of-arrays state advanced by one
  compiled C cycle loop (:mod:`repro.simulation.state` /
  :mod:`repro.simulation.kernels`), batched replications in one process.

Traffic lives in :mod:`repro.workloads` (spatial patterns, temporal
processes, the ``spatial[+temporal]`` grammar of
:class:`~repro.workloads.WorkloadSpec`); the deprecated
``repro.simulation.traffic`` aliases were removed after a deprecation
period.
"""

from repro.simulation.backends import (
    available_engines,
    make_simulator,
    simulate,
    simulate_batch,
    simulate_many,
    summarize_batch,
)
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import WormholeSimulator
from repro.simulation.kernels import ArraySimulator
from repro.simulation.metrics import (
    HopBlockingStats,
    LatencyAccumulator,
    SimulationResult,
)
from repro.simulation.spec import SimSpec
from repro.simulation.state import SimState
from repro.workloads import WorkloadSpec

__all__ = [
    "WorkloadSpec",
    "SimulationConfig",
    "SimSpec",
    "SimState",
    "WormholeSimulator",
    "ArraySimulator",
    "available_engines",
    "make_simulator",
    "simulate",
    "simulate_batch",
    "simulate_many",
    "summarize_batch",
    "SimulationResult",
    "LatencyAccumulator",
    "HopBlockingStats",
]
