"""Tests for the engine's no-progress watchdog and small-worm edge cases.

Allocation is wedged through the public routing interface: an algorithm
whose ``eligible()`` sets are empty never lets a header claim a VC, on
either engine.
"""

import pytest

from repro.routing import EnhancedNbc
from repro.routing.base import EligibleSet
from repro.simulation import (
    ArraySimulator,
    SimulationConfig,
    WormholeSimulator,
    simulate,
)
from repro.simulation import engine as engine_mod
from repro.utils.exceptions import SimulationError


class Wedged(EnhancedNbc):
    """Enhanced-NBC with no eligible VC anywhere: allocation always fails."""

    name = "wedged"

    def eligible(self, cfg, d_remaining, hop_negative, state):
        return EligibleSet(adaptive=range(0), escape=range(0))


class TestWatchdog:
    def test_raises_when_allocation_is_wedged(self, star4, monkeypatch):
        """If no header can ever allocate, the watchdog must fire."""
        cfg = SimulationConfig(
            message_length=4,
            generation_rate=0.05,
            total_vcs=6,
            warmup_cycles=10,
            measure_cycles=100,
            drain_cycles=100_000,
            seed=0,
        )
        sim = WormholeSimulator(star4, Wedged(), cfg)
        monkeypatch.setattr(engine_mod, "_WATCHDOG_GRACE", 200)
        with pytest.raises(SimulationError, match="no progress"):
            sim.run()

    def test_quiet_on_healthy_network(self, star4, monkeypatch):
        monkeypatch.setattr(engine_mod, "_WATCHDOG_GRACE", 200)
        cfg = SimulationConfig(
            message_length=4,
            generation_rate=0.01,
            total_vcs=6,
            warmup_cycles=100,
            measure_cycles=1_000,
            drain_cycles=1_000,
            seed=0,
            engine="object",
        )
        res = simulate(star4, EnhancedNbc(), cfg)
        assert res.messages_completed > 0


class TestConfigurableGrace:
    def test_config_field_overrides_module_default(self, star4):
        """A small configured grace trips without touching the module global."""
        cfg = SimulationConfig(
            message_length=4,
            generation_rate=0.05,
            total_vcs=6,
            warmup_cycles=10,
            measure_cycles=100,
            drain_cycles=100_000,
            seed=0,
            watchdog_grace=150,
        )
        sim = WormholeSimulator(star4, Wedged(), cfg)
        with pytest.raises(SimulationError, match="no progress for 150 cycles"):
            sim.run()

    def test_none_falls_back_to_module_default(self, star4, monkeypatch):
        monkeypatch.setattr(engine_mod, "_WATCHDOG_GRACE", 150)
        cfg = SimulationConfig(
            message_length=4,
            generation_rate=0.05,
            total_vcs=6,
            warmup_cycles=10,
            measure_cycles=100,
            drain_cycles=100_000,
            seed=0,
        )
        sim = WormholeSimulator(star4, Wedged(), cfg)
        with pytest.raises(SimulationError, match="no progress for 150 cycles"):
            sim.run()

    def test_large_grace_survives_a_long_stall(self, star4):
        """A grace above the stall length lets the run finish normally."""
        cfg = SimulationConfig(
            message_length=4,
            generation_rate=0.01,
            total_vcs=6,
            warmup_cycles=100,
            measure_cycles=1_000,
            drain_cycles=1_000,
            seed=0,
            engine="object",
            watchdog_grace=1_000_000,
        )
        res = simulate(star4, EnhancedNbc(), cfg)
        assert res.messages_completed > 0

    def test_invalid_grace_rejected(self):
        from repro.utils.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError, match="watchdog_grace"):
            SimulationConfig(watchdog_grace=0)


class TestWatchdogBackendParity:
    """The watchdog must fire identically on both backends (PR 3)."""

    @staticmethod
    def _wedged_config(**overrides):
        base = dict(
            message_length=4,
            generation_rate=0.05,
            total_vcs=6,
            warmup_cycles=10,
            measure_cycles=100,
            drain_cycles=100_000,
            seed=0,
            watchdog_grace=150,
        )
        base.update(overrides)
        return SimulationConfig(**base)

    def test_deadlock_fires_on_both_backends(self, star4):
        """Wedged allocation (no header ever gets a VC) must trip both
        engines' watchdogs with the same configured grace."""
        cfg = self._wedged_config()

        obj = WormholeSimulator(star4, Wedged(), cfg)
        with pytest.raises(SimulationError, match="no progress for 150 cycles"):
            obj.run()

        arr = ArraySimulator(star4, Wedged(), cfg)
        with pytest.raises(SimulationError, match="no progress for 150 cycles"):
            arr.run()

    def test_fire_cycles_agree(self, star4):
        """Generation is seed-identical across backends, so the stall
        starts at the same cycle; the array backend checks on a 32-cycle
        cadence, so its report may trail by at most that granularity."""
        cfg = self._wedged_config()
        cycles = {}
        for name, sim in (
            ("object", WormholeSimulator(star4, Wedged(), cfg)),
            ("array", ArraySimulator(star4, Wedged(), cfg)),
        ):
            with pytest.raises(SimulationError) as err:
                sim.run()
            cycles[name] = int(str(err.value).split("at cycle ")[1].split()[0])
        assert cycles["object"] <= cycles["array"] <= cycles["object"] + 32

    def test_module_default_governs_both(self, star4, monkeypatch):
        monkeypatch.setattr(engine_mod, "_WATCHDOG_GRACE", 200)
        cfg = self._wedged_config(watchdog_grace=None)
        arr = ArraySimulator(star4, Wedged(), cfg)
        with pytest.raises(SimulationError, match="no progress for 200 cycles"):
            arr.run()

    def test_quiet_on_healthy_batch(self, star4):
        cfg = self._wedged_config(
            generation_rate=0.01, drain_cycles=1_000, watchdog_grace=200
        )
        results = ArraySimulator(star4, EnhancedNbc(), cfg, seeds=(0, 1)).run()
        assert all(r.messages_completed > 0 for r in results)


class TestSmallWorms:
    def test_single_flit_messages(self, star4):
        """M = 1: header == tail; latency ~ hops + ejection."""
        cfg = SimulationConfig(
            message_length=1,
            generation_rate=0.002,
            total_vcs=6,
            warmup_cycles=200,
            measure_cycles=4_000,
            drain_cycles=2_000,
            seed=5,
            engine="object",
        )
        res = simulate(star4, EnhancedNbc(), cfg)
        assert res.messages_measured > 0
        floor = 1 + star4.average_distance()
        assert res.mean_latency == pytest.approx(floor + 1.5, abs=1.5)

    def test_adjacent_destination_single_hop(self, star4):
        """Distance-1 worms traverse exactly one channel."""
        cfg = SimulationConfig(
            message_length=4,
            generation_rate=0.001,
            total_vcs=6,
            warmup_cycles=100,
            measure_cycles=2_000,
            drain_cycles=1_000,
            seed=9,
            traffic="permutation",  # fixed partners, some adjacent
        )
        sim = WormholeSimulator(star4, EnhancedNbc(), cfg)
        res = sim.run()
        assert res.messages_completed > 0
        # every completed hop allocation was recorded at hop index >= 1
        assert sum(r["requests"] for r in res.hop_blocking.as_rows()) > 0
