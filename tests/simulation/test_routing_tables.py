"""The array backend's routing tables: routing as data.

A header's candidate VCs are the product of a (cur, dst) route row
(distance + ``ports()``) and an eligibility-class entry tabulated from
``eligible()`` over (remaining distance, colour, escape floor).  These
tests pin both tables to the routing layer they replace, and the
``eligible()`` contract the class table rests on.
"""

import numpy as np
import pytest

from repro.routing import available_algorithms, make_algorithm
from repro.routing.base import MessageRouteState
from repro.simulation import ArraySimulator, SimulationConfig
from repro.topology import Hypercube, StarGraph
from repro.utils.exceptions import ConfigurationError, SimulationError

TOPOLOGIES = {
    "S4": lambda: StarGraph(4),
    "S5": lambda: StarGraph(5),
    "Q4": lambda: Hypercube(4),
}


def small_config(**overrides):
    base = dict(
        message_length=8,
        generation_rate=0.01,
        total_vcs=6,
        warmup_cycles=100,
        measure_cycles=300,
        drain_cycles=300,
        seed=11,
    )
    base.update(overrides)
    return SimulationConfig(**base)


def _eligible(algorithm, cfg, d, negative, floor, hops=0, neg_hops=0):
    state = MessageRouteState(
        escape_floor=floor, hops_taken=hops, negative_hops=neg_hops
    )
    try:
        return algorithm.eligible(cfg, d, negative, state)
    except ConfigurationError:
        return None


@pytest.mark.parametrize("topo", sorted(TOPOLOGIES))
@pytest.mark.parametrize("name", available_algorithms())
def test_class_table_matches_eligible(name, topo):
    topology = TOPOLOGIES[topo]()
    algorithm = make_algorithm(name)
    sim = ArraySimulator(topology, algorithm, small_config())
    cfg = sim.vc_config
    diameter = topology.diameter()
    table = sim.state.cls.reshape(diameter, 2, cfg.num_escape, 4)
    invalid = 0
    for d in range(1, diameter + 1):
        for colour in (0, 1):
            for floor in range(cfg.num_escape):
                es = _eligible(algorithm, cfg, d, colour == 1, floor)
                row = table[d - 1, colour, floor].tolist()
                if es is None:
                    assert row == [-1, -1, -1, -1], (d, colour, floor)
                    invalid += 1
                    continue
                assert row == [
                    es.adaptive.start,
                    len(es.adaptive),
                    es.escape.start,
                    len(es.escape),
                ], (d, colour, floor)
                assert (*range(row[0], row[0] + row[1]),) == (*es.adaptive,)
                assert (*range(row[2], row[2] + row[3]),) == (*es.escape,)
                # The contract: hop counters are diagnostics only.
                for hops, neg_hops in ((1, 0), (5, 3), (17, 9)):
                    assert _eligible(
                        algorithm, cfg, d, colour == 1, floor, hops, neg_hops
                    ) == es
    assert invalid < table.shape[0] * table.shape[1] * table.shape[2]


@pytest.mark.parametrize("path", ["default", "stepped"])
def test_route_rows_match_topology_and_ports(star4, path):
    algorithm = make_algorithm("enhanced_nbc")
    sim = ArraySimulator(star4, algorithm, small_config(), seeds=(1, 2))
    if path == "stepped":
        for _ in range(small_config().horizon):
            sim.step()
    else:
        sim.run()
    N = star4.num_nodes
    rows = sim.state.route.reshape(N, N, sim.state.route_w)
    filled = 0
    for cur in range(N):
        for dst in range(N):
            row = rows[cur, dst].tolist()
            if row[0] < 0:  # untouched: still exactly as allocated
                assert row == [-1] * sim.state.route_w
                continue
            filled += 1
            ports = algorithm.ports(star4, cur, dst)
            assert row[0] == star4.distance(cur, dst)
            assert tuple(row[2 : 2 + row[1]]) == ports
    assert filled > 100
    # Nothing routes to itself, so the diagonal stays unresolved.
    assert np.all(rows[np.arange(N), np.arange(N), 0] == -1)


def test_array_engine_refuses_networks_above_2048_nodes():
    with pytest.raises(ConfigurationError, match="engine='object'"):
        ArraySimulator(
            Hypercube(12), make_algorithm("enhanced_nbc"), small_config(total_vcs=10)
        )


@pytest.mark.parametrize("path", ["default", "stepped"])
def test_ineligible_state_is_an_invariant_failure(star4, path):
    """A header whose floor the class table rejects stops the run loudly
    (the floor invariant makes this unreachable for stock algorithms)."""
    algorithm = make_algorithm("nhop")

    def reject(cfg, d_remaining, hop_negative, state):
        raise ConfigurationError("no eligible class")

    algorithm.eligible = reject
    sim = ArraySimulator(star4, algorithm, small_config())
    assert np.all(sim.state.cls == -1)
    with pytest.raises(SimulationError, match="invariant failure"):
        if path == "stepped":
            while True:
                sim.step()
        else:
            sim.run()



def test_array_engine_refuses_overridden_advance_floor(star4):
    """The kernel inlines the stock floor arithmetic: an algorithm that
    overrides advance_floor must run on the object engine instead."""
    from repro.routing import EnhancedNbc

    class Sticky(EnhancedNbc):
        def advance_floor(self, cfg, state, used_vc_index, hop_negative):
            state.hops_taken += 1

    with pytest.raises(ConfigurationError, match="engine='object'"):
        ArraySimulator(star4, Sticky(), small_config())


def test_wide_candidate_set_stays_in_the_loop():
    """deg * V > 512 candidate VCs: the allocation scratch is sized from
    the configuration, so the run completes in the resident loop with no
    Python cycle (step() is never called by run())."""
    topology = Hypercube(9)  # degree 9
    algorithm = make_algorithm("enhanced_nbc")
    cfg = small_config(
        total_vcs=60,
        message_length=4,
        generation_rate=0.002,
        warmup_cycles=50,
        measure_cycles=150,
        drain_cycles=200,
    )
    sim = ArraySimulator(topology, algorithm, cfg)
    assert topology.degree * cfg.total_vcs > 512
    steps = [0]
    step = sim.step
    sim.step = lambda *a: (steps.__setitem__(0, steps[0] + 1), step(*a))
    result = sim.run()[0]
    assert steps[0] == 0
    assert result.messages_completed > 0
    assert sim.phase_profile()["returns"] >= 1
