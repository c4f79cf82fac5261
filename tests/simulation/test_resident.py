"""The resident C loop on S5: residency, drive invariance, callback failures.

``starnet_run`` services route-row fills (callback kind 2) and uniform-
buffer shortages (kind 4) inside the loop and samples channel load in
C, so on the paper's 120-node star :meth:`ArraySimulator.run` returns to
Python only for stops and message-pool growth.  These tests pin that
contract with the driver's own event counters, check that a run driven
partly by ``step()`` ends in the same bits as one ``run()`` call, and
that a Python exception raised inside a route-row callback surfaces
unchanged without pinning the simulator.
"""

import gc
import sys
import weakref

import numpy as np
import pytest

from repro.routing import EnhancedNbc
from repro.simulation import ArraySimulator, SimulationConfig
from repro.simulation.ckernel import load_kernel
from repro.simulation.trace import state_digest
from repro.utils.rng import RngStreams

needs_kernel = pytest.mark.skipif(
    load_kernel() is None, reason="no C compiler available"
)

SEEDS = (3, 4, 5, 6)


def s5_config(**overrides):
    base = dict(
        message_length=32,
        generation_rate=0.006,
        total_vcs=6,
        warmup_cycles=500,
        measure_cycles=1_500,
        drain_cycles=1_000,
        seed=SEEDS[0],
    )
    base.update(overrides)
    return SimulationConfig(**base)


def _counting(sim, name):
    """Wrap one simulator method with a call counter."""
    calls = [0]
    inner = getattr(sim, name)

    def wrapper(*args):
        calls[0] += 1
        return inner(*args)

    setattr(sim, name, wrapper)
    return calls


@needs_kernel
class TestS5Residency:
    @pytest.fixture(scope="class")
    def runs(self, star5):
        out = {}
        for path in ("resident", "stepped"):
            sim = ArraySimulator(star5, EnhancedNbc(), s5_config(), seeds=SEEDS)
            cap0 = sim.state.capacity
            fills = _counting(sim, "_fill_route")
            refills = _counting(sim, "_ensure_uniforms")
            if path == "stepped":
                # The warmup one cycle per step() call, then run():
                # no replication can stop before its horizon.
                for _ in range(s5_config().warmup_cycles):
                    sim.step()
            results = sim.run()
            out[path] = {
                "results": [r.as_dict() for r in results],
                "stops": len({r.cycles_run for r in results}),
                "digest": state_digest(sim),
                "profile": sim.phase_profile(),
                "growths": (sim.state.capacity // cap0).bit_length() - 1,
                "fills": fills[0],
                "refills": refills[0],
            }
        return out

    def test_results_identical_on_all_paths(self, runs):
        assert runs["stepped"]["results"] == runs["resident"]["results"]
        assert runs["resident"]["profile"]["cycles"] >= 2_000

    def test_state_digest_identical_on_all_paths(self, runs):
        assert runs["stepped"]["digest"] == runs["resident"]["digest"]

    def test_returns_only_for_stops_and_growth(self, runs):
        run = runs["resident"]
        prof = run["profile"]
        # Route-row fills and uniform refills really happened, as callbacks.
        assert run["fills"] > 100 and run["refills"] > 0
        assert prof["callbacks"] >= run["fills"]
        # One return per stop cycle (replications stopping together
        # share it) and one per message-pool growth (each doubles).
        assert prof["returns"] - run["stops"] <= run["growths"]
        assert prof["returns"] == run["stops"] + run["growths"]

    def test_per_cycle_driver_never_returns_from_the_loop(self, runs):
        """``step()``'s one-cycle kernel calls are not counted as
        returns: the counter means stops and pool growths only."""
        stepped = runs["stepped"]
        resident = runs["resident"]
        assert stepped["profile"]["returns"] == resident["profile"]["returns"]
        assert stepped["profile"]["callbacks"] == resident["profile"]["callbacks"]


class Boom(RuntimeError):
    pass


def _raise_in_callback(algorithm, after):
    """Make ``algorithm.ports`` raise once it has served ``after`` calls
    made from inside a kernel callback (so the error crosses C)."""
    inner = algorithm.ports
    seen = [0]
    raised = []

    def ports(*args):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code.co_name != "_cb_dispatch":
            frame = frame.f_back
        if frame is not None:
            seen[0] += 1
            if seen[0] > after:
                raised.append(Boom(f"ports failed after {after} calls"))
                raise raised[-1]
        return inner(*args)

    algorithm.ports = ports
    return raised


@needs_kernel
class TestCallbackExceptions:
    @pytest.mark.parametrize("drive", ["run", "step"])
    def test_kind2_exception_propagates_and_frees_sim(self, star4, drive):
        algorithm = EnhancedNbc()
        sim = ArraySimulator(
            star4, algorithm, s5_config(generation_rate=0.01), seeds=SEEDS
        )
        raised = _raise_in_callback(algorithm, after=40)
        with pytest.raises(Boom) as info:
            if drive == "run":
                sim.run()
            else:
                while True:
                    sim.step()
        assert info.value is raised[0]
        assert sim._cb_exc is None  # handed over, not kept
        ref = weakref.ref(sim)
        raised.clear()  # the patched ports closure still holds this list
        del sim, info
        gc.collect()
        assert ref() is None


class TestUniformBufferWidening:
    def test_widening_refills_every_row(self, star3):
        """A need wider than the buffer refills every row, not just the
        short ones: no row may keep uninitialised memory past its old
        capacity, and each row continues its own allocator stream."""
        seeds = (7, 8)
        sims = [
            ArraySimulator(star3, EnhancedNbc(), s5_config(), seeds=seeds)
            for _ in range(2)
        ]
        for sim in sims:
            cap = sim.state.buf_cap
            sim.state.need_n[:] = (cap, 0)
            sim._ensure_uniforms(cap)
            assert sim.state.buf_cap == 2 * cap
        buf = sims[0].state.alloc_buf
        assert np.array_equal(buf, sims[1].state.alloc_buf)
        for rep, seed in enumerate(seeds):
            pos = int(sims[0].state.alloc_pos[rep])
            tail = buf[rep, pos:]
            assert tail.size and np.all((tail >= 0.0) & (tail < 1.0))
            stream = RngStreams(seed).allocator()
            stream.random(cap)  # the initial fill
            assert np.array_equal(buf[rep], stream.random(2 * cap))
