"""Kernel phase profiling: opt-in, observational, identical results.

The contract under test (see docs/observability.md): ``profile=True``
attaches a per-phase wall-time breakdown to the batch's first result,
the default stays ``None``, and turning profiling on
never changes a single simulation output — the instrumentation only
reads clocks.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.routing import EnhancedNbc
from repro.simulation import ArraySimulator, simulate_batch, summarize_batch
from repro.simulation.ckernel import load_kernel

PHASES = ("generation", "activation", "route", "complete")


def _results_equal(a, b) -> None:
    skip = {"phase_ns", "hop_blocking"}
    for f in dataclasses.fields(a):
        if f.name in skip:
            continue
        assert getattr(a, f.name) == getattr(b, f.name), f.name


class TestPhaseProfile:
    def test_off_by_default(self, star4, quick_sim_config):
        result = ArraySimulator(star4, EnhancedNbc(), quick_sim_config).run()[0]
        assert result.phase_ns is None
        assert "phase_ns" not in result.as_dict()

    def test_profile_attaches_breakdown(self, star4, quick_sim_config):
        sim = ArraySimulator(star4, EnhancedNbc(), quick_sim_config, profile=True)
        result = sim.run()[0]
        prof = result.phase_ns
        assert prof is not None
        assert set(prof) == set(PHASES) | {
            "other",
            "total",
            "cycles",
            "returns",
            "callbacks",
        }
        assert prof["total"] > 0
        assert prof["cycles"] == result.cycles_run
        assert all(prof[p] >= 0 for p in PHASES)
        # Accounted phases never exceed the measured total.
        assert sum(prof[p] for p in PHASES) + prof["other"] == prof["total"]
        assert result.as_dict()["phase_ns"] == prof

    def test_profiled_run_is_bit_identical(self, star4, quick_sim_config):
        plain = ArraySimulator(star4, EnhancedNbc(), quick_sim_config).run()[0]
        profiled = ArraySimulator(
            star4, EnhancedNbc(), quick_sim_config, profile=True
        ).run()[0]
        _results_equal(plain, profiled)

    def test_batch_attaches_to_first_replication_only(self, star4, quick_sim_config):
        results = simulate_batch(
            star4, EnhancedNbc(), quick_sim_config, 4, engine="array", profile=True
        )
        assert results[0].phase_ns is not None
        assert all(r.phase_ns is None for r in results[1:])

    def test_summarize_batch_pools_phase_ns(self, star4, quick_sim_config):
        batch_a = simulate_batch(
            star4, EnhancedNbc(), quick_sim_config, 2, engine="array", profile=True
        )
        batch_b = simulate_batch(
            star4,
            EnhancedNbc(),
            quick_sim_config.with_seed(quick_sim_config.seed + 2),
            2,
            engine="array",
            profile=True,
        )
        pooled = summarize_batch(batch_a + batch_b)["phase_ns"]
        for key in PHASES + ("other", "total", "cycles"):
            assert pooled[key] == batch_a[0].phase_ns[key] + batch_b[0].phase_ns[key]

    def test_summarize_batch_omits_key_when_unprofiled(self, star4, quick_sim_config):
        results = simulate_batch(star4, EnhancedNbc(), quick_sim_config, 2, engine="array")
        assert "phase_ns" not in summarize_batch(results)


class TestAllDriverPaths:
    """run() and step() each account the phases the kernel ran."""

    def test_resident_c_loop(self, star4, quick_sim_config):
        if load_kernel() is None:
            pytest.skip("compiled kernel unavailable")
        sim = ArraySimulator(star4, EnhancedNbc(), quick_sim_config, profile=True)
        prof = sim.run()[0].phase_ns
        assert prof["generation"] > 0 and prof["activation"] > 0
        assert prof["route"] > 0

    def test_per_cycle_c_path(self, star4, quick_sim_config):
        if load_kernel() is None:
            pytest.skip("compiled kernel unavailable")
        sim = ArraySimulator(star4, EnhancedNbc(), quick_sim_config, profile=True)
        for _ in range(400):
            sim.step()
        prof = sim.phase_profile()
        assert prof["generation"] > 0 and prof["activation"] > 0
        assert prof["route"] > 0
        assert prof["returns"] == 0  # step() calls are not returns


class TestProfileKnobIsObservational:
    def test_step_driven_use_without_run(self, star4, quick_sim_config):
        sim = ArraySimulator(star4, EnhancedNbc(), quick_sim_config, profile=True)
        for _ in range(50):
            sim.step()
        prof = sim.phase_profile()
        assert prof["cycles"] == 50
        # No run() wrapper ran, so total falls back to the accounted sum.
        assert prof["total"] == sum(prof[p] for p in PHASES) + prof["other"]

    def test_unprofiled_phase_profile_is_zero(self, star4, quick_sim_config):
        sim = ArraySimulator(star4, EnhancedNbc(), quick_sim_config)
        for _ in range(10):
            sim.step()
        prof = sim.phase_profile()
        assert all(prof[p] == 0 for p in PHASES)
        assert prof["total"] == 0
