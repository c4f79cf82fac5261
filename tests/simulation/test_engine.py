"""Behavioural tests of the wormhole simulation engine."""

import math

import pytest

from repro.routing import EnhancedNbc, GreedyDeterministic, Nbc, NegativeHop, make_algorithm
from repro.simulation import SimulationConfig, WormholeSimulator, simulate
from repro.topology import Hypercube, StarGraph


def tiny_config(**overrides):
    base = dict(
        message_length=8,
        generation_rate=0.003,
        total_vcs=6,
        warmup_cycles=300,
        measure_cycles=1_500,
        drain_cycles=3_000,
        seed=11,
        engine="object",  # this module tests the reference engine
    )
    base.update(overrides)
    return SimulationConfig(**base)


class TestZeroLoadBehaviour:
    def test_latency_near_floor(self, star4):
        """At vanishing load latency ~ M + d̄ (+1 ejection +0.5 quantisation)."""
        cfg = tiny_config(generation_rate=0.0005, message_length=16,
                          measure_cycles=20_000, drain_cycles=4_000)
        res = simulate(star4, EnhancedNbc(), cfg)
        floor = 16 + star4.average_distance()
        assert res.mean_latency == pytest.approx(floor + 1.5, abs=1.0)
        assert not res.saturated
        assert res.mean_multiplexing == pytest.approx(1.0, abs=0.1)

    def test_network_latency_excludes_source_wait(self, star4):
        cfg = tiny_config(generation_rate=0.002)
        res = simulate(star4, EnhancedNbc(), cfg)
        assert res.mean_latency == pytest.approx(
            res.mean_network_latency + res.mean_source_wait, abs=1e-9
        )


class TestConservation:
    def test_all_messages_complete_in_stable_run(self, star4):
        sim = WormholeSimulator(star4, EnhancedNbc(), tiny_config())
        res = sim.run()
        # every generated-and-activated message either completed or is
        # still queued/in flight; none vanished
        assert res.messages_completed + sim._in_flight + res.backlog == res.messages_generated
        assert res.messages_measured > 0
        assert not res.saturated

    def test_no_channels_leak(self, star4):
        sim = WormholeSimulator(star4, EnhancedNbc(), tiny_config())
        sim.run()
        # after drain with no in-flight messages all VCs must be free
        if sim._in_flight == 0:
            for ch in sim.channels:
                assert ch.busy_count == 0
                for vc in ch.vcs:
                    assert vc.owner is None

    def test_flit_conservation(self, star4):
        cfg = tiny_config()
        sim = WormholeSimulator(star4, EnhancedNbc(), cfg)
        res = sim.run()
        # completed messages moved exactly M flits source->sink each
        assert res.messages_completed * cfg.message_length <= sum(
            ch.transfers for ch in sim.channels
        ) <= res.messages_generated * cfg.message_length * star4.diameter()


class TestDeterminism:
    def test_same_seed_same_result(self, star4):
        a = simulate(star4, EnhancedNbc(), tiny_config(seed=5))
        b = simulate(star4, EnhancedNbc(), tiny_config(seed=5))
        assert a.mean_latency == b.mean_latency
        assert a.messages_generated == b.messages_generated

    def test_different_seed_different_sample(self, star4):
        a = simulate(star4, EnhancedNbc(), tiny_config(seed=5))
        b = simulate(star4, EnhancedNbc(), tiny_config(seed=6))
        assert a.mean_latency != b.mean_latency

    def test_deterministic_under_heavy_contention(self, star4):
        """Transfer arbitration must not depend on heap layout.

        Near saturation many channels are busy at once; if their
        iteration order ever depends on object identity (e.g. a plain
        set), results drift between runs even with identical seeds —
        which would poison the campaign store's content-hash caching.
        """
        cfg = tiny_config(
            generation_rate=0.03,
            message_length=16,
            measure_cycles=2_000,
            drain_cycles=6_000,
        )
        garbage = [object() for _ in range(10_000)]  # perturb the heap
        a = simulate(star4, EnhancedNbc(), cfg)
        del garbage
        b = simulate(star4, EnhancedNbc(), cfg)
        assert a.mean_latency == b.mean_latency
        assert a.channel_utilization == b.channel_utilization
        assert a.backlog == b.backlog


class TestAllAlgorithmsRun:
    @pytest.mark.parametrize("name", ["greedy", "nhop", "nbc", "enhanced_nbc"])
    def test_stable_run_completes(self, star4, name):
        res = simulate(star4, make_algorithm(name), tiny_config())
        assert res.messages_measured > 0
        assert math.isfinite(res.mean_latency)
        assert not res.saturated

    @pytest.mark.parametrize("name", ["greedy", "nhop", "nbc", "enhanced_nbc"])
    def test_deadlock_free_at_high_load(self, star4, name):
        """Overdriven network must keep making progress (watchdog quiet)."""
        cfg = tiny_config(
            generation_rate=0.03,
            warmup_cycles=200,
            measure_cycles=1_200,
            drain_cycles=600,
        )
        res = simulate(star4, make_algorithm(name), cfg)
        assert res.messages_completed > 0  # traffic flowed despite overload


class TestHypercubeSupport:
    def test_enhanced_nbc_on_cube(self, cube4):
        res = simulate(cube4, EnhancedNbc(), tiny_config())
        assert res.messages_measured > 0
        assert not res.saturated

    def test_zero_load_floor_on_cube(self, cube4):
        cfg = tiny_config(generation_rate=0.0005, message_length=16,
                          measure_cycles=20_000)
        res = simulate(cube4, EnhancedNbc(), cfg)
        floor = 16 + cube4.average_distance()
        assert res.mean_latency == pytest.approx(floor + 1.5, abs=1.0)


class TestKnobs:
    def test_single_flit_buffer_slows_worms(self, star4):
        deep = simulate(star4, EnhancedNbc(), tiny_config(buffer_depth=2))
        shallow = simulate(star4, EnhancedNbc(), tiny_config(buffer_depth=1))
        assert shallow.mean_latency > deep.mean_latency

    def test_finite_ejection_rate_still_completes(self, star4):
        res = simulate(star4, EnhancedNbc(), tiny_config(ejection_rate=1))
        assert res.messages_measured > 0
        assert math.isfinite(res.mean_latency)

    def test_single_injection_slot_increases_source_wait(self, star4):
        many = simulate(star4, EnhancedNbc(), tiny_config(generation_rate=0.008))
        one = simulate(
            star4, EnhancedNbc(), tiny_config(generation_rate=0.008, injection_slots=1)
        )
        assert one.mean_source_wait >= many.mean_source_wait

    def test_longer_messages_higher_latency(self, star4):
        short = simulate(star4, EnhancedNbc(), tiny_config(message_length=8))
        long_ = simulate(star4, EnhancedNbc(), tiny_config(message_length=32))
        assert long_.mean_latency > short.mean_latency + 20

    def test_hotspot_traffic_runs(self, star4):
        res = simulate(star4, EnhancedNbc(), tiny_config(traffic="hotspot"))
        assert res.messages_measured > 0


class TestSaturationDetection:
    def test_overdriven_network_flagged(self, star4):
        cfg = tiny_config(
            generation_rate=0.12,
            message_length=24,
            warmup_cycles=300,
            measure_cycles=2_500,
            drain_cycles=500,
        )
        res = simulate(star4, EnhancedNbc(), cfg)
        assert res.saturated
        assert res.backlog > 0

    def test_monotone_latency_in_rate(self, star4):
        rates = (0.005, 0.030, 0.060)
        lats = [
            simulate(
                star4,
                EnhancedNbc(),
                tiny_config(
                    generation_rate=r, message_length=16, measure_cycles=4_000
                ),
            ).mean_latency
            for r in rates
        ]
        assert lats[0] < lats[1] < lats[2]


class TestStepGranularity:
    def test_manual_stepping_matches_run(self, star4):
        cfg = tiny_config(measure_cycles=500, drain_cycles=800)
        auto = WormholeSimulator(star4, EnhancedNbc(), cfg).run()
        manual = WormholeSimulator(star4, EnhancedNbc(), cfg)
        while True:
            if manual.cycle >= cfg.horizon and manual._measured_in_flight == 0:
                break
            if manual.cycle >= cfg.horizon + cfg.drain_cycles:
                break
            manual.step()
        assert manual._result().mean_latency == auto.mean_latency
