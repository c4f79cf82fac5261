"""Pre-drawn workload blocks: seed-stream parity and batch invariance.

The array backend draws arrival instants and destinations in blocks
(``draw_block`` / ``destinations_block``) instead of one variate per
event.  The contract (docs/simulation.md): a block of k draws consumes
the underlying Generator stream exactly like k scalar draws, so results
are independent of block size — and a replication inside a heterogeneous
batch is bit-identical to the same config run alone.
"""

import json

import numpy as np
import pytest

from repro.routing import EnhancedNbc
from repro.simulation import (
    ArraySimulator,
    SimulationConfig,
    simulate,
    simulate_many,
)
from repro.utils.rng import RngStreams
from repro.workloads.spatial import available_spatial, make_spatial
from repro.workloads.temporal import available_temporal, make_temporal


def small_config(**overrides):
    base = dict(
        message_length=16,
        generation_rate=0.004,
        total_vcs=5,
        warmup_cycles=300,
        measure_cycles=1_500,
        drain_cycles=2_500,
        seed=7,
    )
    base.update(overrides)
    return SimulationConfig(**base)


def result_key(res):
    """Every deterministic headline number of a run."""
    return (
        res.mean_latency,
        res.mean_network_latency,
        res.mean_source_wait,
        res.messages_measured,
        res.messages_generated,
        res.messages_completed,
        res.accepted_rate,
        res.mean_multiplexing,
        res.channel_utilization,
        res.cycles_run,
        res.backlog,
    )

#: Representative parameters per temporal process (defaults elsewhere).
_TEMPORAL_PARAMS = {
    "poisson": {},
    "deterministic": {},
    "onoff": {"duty": 0.4, "burst": 6.0},
    "batch": {"size": 3},
}

#: Spatial patterns and the params they need (trace: a file, below).
_SPATIAL_PARAMS = {
    "uniform": {},
    "hotspot": {},
    "locality": {},
    "permutation": {},
    "shift": {"offset": 5},
    "trace": {},
}


def write_trace(path, num_nodes):
    """A replay trace: even sources cycle through three recorded
    destinations, odd sources are absent (uniform fallback)."""
    pairs = [
        [s, (s + k) % num_nodes]
        for s in range(0, num_nodes, 2)
        for k in (1, 5, 11)
    ]
    path.write_text(json.dumps({"pairs": pairs}))
    return str(path)


class TestTemporalBlockParity:
    @pytest.mark.parametrize("name", sorted(_TEMPORAL_PARAMS))
    def test_draw_block_matches_scalar_stream(self, name):
        """draw_block(k) == k pop_next() calls, bit for bit."""
        params = _TEMPORAL_PARAMS[name]
        scalar = make_temporal(
            name, 0.01, np.random.default_rng(42), params=params
        )
        block = make_temporal(
            name, 0.01, np.random.default_rng(42), params=params
        )
        expected = [scalar.pop_next() for _ in range(257)]
        got = block.draw_block(100) + block.draw_block(57) + block.draw_block(100)
        assert got == expected

    def test_temporal_coverage(self):
        """Every registered temporal process is exercised above."""
        assert set(_TEMPORAL_PARAMS) == set(available_temporal())

    def test_zero_rate_block_is_empty_safe(self):
        proc = make_temporal("poisson", 0.0, np.random.default_rng(1))
        assert proc.draw_block(0) == []


class TestSpatialBlockParity:
    @pytest.mark.parametrize("name", sorted(_SPATIAL_PARAMS))
    @pytest.mark.parametrize("src", [3, 4])
    def test_destinations_block_matches_scalar_stream(
        self, name, src, star4, tmp_path
    ):
        params = dict(_SPATIAL_PARAMS[name])
        if name == "trace":
            params["path"] = write_trace(tmp_path / "trace.json", star4.num_nodes)
        scalar, block = (
            make_spatial(name, topology=star4, params=params) for _ in range(2)
        )
        scalar_rng = np.random.default_rng(99)
        block_rng = np.random.default_rng(99)
        expected = [scalar.destination(src, scalar_rng) for _ in range(200)]
        got = block.destinations_block(
            src, 64, block_rng
        ) + block.destinations_block(src, 136, block_rng)
        assert got == expected
        assert src not in got

    def test_spatial_coverage(self):
        """Every registered pattern is exercised above."""
        assert set(_SPATIAL_PARAMS) == set(available_spatial())


class TestBlockSizeInvariance:
    def test_results_independent_of_gen_block_size(self, star4, monkeypatch):
        """Shrinking the pre-draw block must not change any result."""
        import repro.simulation.state as state_mod

        cfg = small_config(seed=11, workload="uniform+onoff(duty=0.5,burst=4)")
        baseline = ArraySimulator(star4, EnhancedNbc(), cfg).run()[0]
        monkeypatch.setattr(state_mod, "_GEN_BLOCK", 3)
        small_blocks = ArraySimulator(star4, EnhancedNbc(), cfg).run()[0]
        assert result_key(small_blocks) == result_key(baseline)


class TestRaggedBatchInvariance:
    def test_heterogeneous_batch_matches_solo_runs(self, star4):
        """Per-rep configs (rate, seed, windows, batches) never couple."""
        configs = [
            small_config(seed=21),
            small_config(
                seed=22,
                generation_rate=0.006,
                warmup_cycles=200,
                measure_cycles=900,
                drain_cycles=1_500,
                batches=4,
            ),
            small_config(seed=23, generation_rate=0.002, measure_cycles=2_000),
        ]
        batched = ArraySimulator(star4, EnhancedNbc(), configs=configs).run()
        for cfg, got in zip(configs, batched):
            solo = ArraySimulator(star4, EnhancedNbc(), cfg).run()[0]
            assert result_key(got) == result_key(solo)
            assert got.latency_ci == solo.latency_ci or (
                np.isnan(got.latency_ci) and np.isnan(solo.latency_ci)
            )

    def test_trace_batch_matches_solo(self, star4, tmp_path):
        """Trace replay keeps a cursor per source; one pattern per
        replication keeps batch companions from advancing each other's
        cursors."""
        path = write_trace(tmp_path / "trace.json", star4.num_nodes)
        cfg = small_config(
            seed=1, generation_rate=0.006, workload=f"trace(path={path})"
        )
        solo = ArraySimulator(star4, EnhancedNbc(), cfg).run()[0]
        batched = ArraySimulator(star4, EnhancedNbc(), cfg, seeds=(1, 2)).run()[0]
        assert batched.messages_generated == solo.messages_generated
        assert batched.messages_completed == solo.messages_completed
        assert batched.cycles_run == solo.cycles_run
        assert batched.mean_latency == pytest.approx(solo.mean_latency, rel=1e-12)

    def test_simulate_many_matches_solo_and_object_order(self, star4):
        configs = [
            small_config(seed=31, engine="array"),
            small_config(seed=32, generation_rate=0.005, engine="array"),
        ]
        many = simulate_many(star4, EnhancedNbc(), configs)
        assert len(many) == 2
        for cfg, got in zip(configs, many):
            solo = simulate(star4, EnhancedNbc(), cfg, engine="array")
            assert result_key(got) == result_key(solo)

    def test_simulate_many_object_engine_sequential(self, star4):
        configs = [small_config(seed=41), small_config(seed=42)]
        many = simulate_many(star4, EnhancedNbc(), configs, engine="object")
        for cfg, got in zip(configs, many):
            solo = simulate(star4, EnhancedNbc(), cfg, engine="object")
            assert result_key(got) == result_key(solo)

    def test_structural_mismatch_rejected(self, star4):
        from repro.utils.exceptions import ConfigurationError

        configs = [small_config(seed=1), small_config(seed=2, message_length=32)]
        with pytest.raises(ConfigurationError):
            ArraySimulator(star4, EnhancedNbc(), configs=configs)
