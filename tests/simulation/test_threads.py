"""Single-threaded kernel: batch invariance, no threads knob, simulator lifetime.

A replication's result must never depend on what it was batched with:
every mutable word of kernel state is per-replication and the phase-5
reduction merges in fixed replication order.  The kernel runs on one
thread; parallelism comes from campaign lanes, so no ``threads`` knob
exists and a stale one in a campaign key is rejected loudly.
"""

import gc
import weakref

import pytest

from repro.routing import EnhancedNbc
from repro.simulation import ArraySimulator, SimulationConfig
from repro.simulation.ckernel import load_kernel
from repro.simulation.spec import SimSpec
from repro.utils.exceptions import ConfigurationError

needs_kernel = pytest.mark.skipif(
    load_kernel() is None, reason="no C compiler available"
)


def small_config(**overrides):
    base = dict(
        message_length=16,
        generation_rate=0.01,
        total_vcs=5,
        warmup_cycles=300,
        measure_cycles=1_500,
        drain_cycles=2_500,
        seed=5,
    )
    base.update(overrides)
    return SimulationConfig(**base)


@needs_kernel
class TestBatchInvariance:
    """Replication i is a pure function of seeds[i], at any batch width."""

    @pytest.mark.parametrize("width", [1, 2, 7])
    def test_batched_equals_solo(self, star3, width):
        cfg = small_config(generation_rate=0.006)
        seeds = [3, 11, 4, 8, 0, 21, 6][:width]
        batched = ArraySimulator(star3, EnhancedNbc(), cfg, seeds=seeds).run()
        for seed, from_batch in zip(seeds, batched):
            solo = ArraySimulator(star3, EnhancedNbc(), cfg, seeds=[seed]).run()[0]
            assert solo.as_dict() == from_batch.as_dict()


class TestNoThreadsKnob:
    def test_sim_spec_rejects_threads(self):
        params = {"topology": "star", "order": 4, "message_length": 16}
        SimSpec.from_params(params)
        with pytest.raises(ConfigurationError, match="threads"):
            SimSpec.from_params({**params, "threads": 2})


@needs_kernel
class TestSimulatorLifetime:
    def test_compiled_simulator_dies_by_refcount(self, star3):
        """The resident loop's ctypes callback must not pin its simulator."""
        gc.collect()
        gc.disable()
        try:
            sim = ArraySimulator(
                star3, EnhancedNbc(), small_config(measure_cycles=500)
            )
            sim.run()
            ref = weakref.ref(sim)
            del sim
            assert ref() is None
        finally:
            gc.enable()
