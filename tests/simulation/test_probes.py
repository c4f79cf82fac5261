"""In-kernel time-series probes: opt-in, observational, drive-identical.

The contract under test (see docs/observability.md): ``probe_interval=k``
attaches an aggregate time-series dict to the batch's first result, the
default stays ``None``, probing never changes a single simulation
output, and a run driven partly by ``step()`` writes the same samples as
one ``run()`` call.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.routing import EnhancedNbc
from repro.simulation import ArraySimulator, simulate_batch
from repro.simulation.ckernel import load_kernel
from repro.simulation.trace import state_digest

SERIES_KEYS = {
    "interval",
    "replications",
    "total_vcs",
    "cycles",
    "in_flight",
    "completed",
    "throughput",
    "backlog",
    "occupancy",
}


def _results_equal(a, b) -> None:
    skip = {"phase_ns", "hop_blocking", "timeseries"}
    for f in dataclasses.fields(a):
        if f.name in skip:
            continue
        assert getattr(a, f.name) == getattr(b, f.name), f.name


class TestProbeSchema:
    def test_off_by_default(self, star4, quick_sim_config):
        result = ArraySimulator(star4, EnhancedNbc(), quick_sim_config).run()[0]
        assert result.timeseries is None
        assert "timeseries" not in result.as_dict()

    def test_probed_run_attaches_timeseries(self, star4, quick_sim_config):
        sim = ArraySimulator(
            star4, EnhancedNbc(), quick_sim_config, probe_interval=25
        )
        result = sim.run()[0]
        series = result.timeseries
        assert series is not None
        assert set(series) == SERIES_KEYS
        assert series["interval"] == 25
        assert series["replications"] == 1
        assert series["total_vcs"] == quick_sim_config.total_vcs
        n = len(series["cycles"])
        # The drain window ends as soon as the network empties, so the
        # sample count is run-length / 25, not the full horizon.
        assert n >= 50
        assert series["cycles"][0] == 0
        assert all(
            b - a == 25 for a, b in zip(series["cycles"], series["cycles"][1:])
        )
        assert len(series["in_flight"]) == n
        assert all(len(row) == quick_sim_config.total_vcs + 1 for row in series["occupancy"])
        assert result.as_dict()["timeseries"] == series

    def test_completed_is_cumulative_and_ends_at_total(self, star4, quick_sim_config):
        sim = ArraySimulator(
            star4, EnhancedNbc(), quick_sim_config, probe_interval=10
        )
        result = sim.run()[0]
        completed = result.timeseries["completed"]
        assert completed == sorted(completed)
        # Every generated message drains by the end of the run.
        assert completed[-1] >= result.messages_measured
        assert result.timeseries["in_flight"][-1] == 0

    def test_batch_attaches_to_first_replication_only(self, star4, quick_sim_config):
        results = simulate_batch(
            star4, EnhancedNbc(), quick_sim_config, 4, engine="array", probe_interval=50
        )
        assert results[0].timeseries is not None
        assert results[0].timeseries["replications"] == 4
        assert all(r.timeseries is None for r in results[1:])

    def test_probe_series_requires_probing(self, star4, quick_sim_config):
        sim = ArraySimulator(star4, EnhancedNbc(), quick_sim_config)
        with pytest.raises(Exception):
            sim.probe_series()

    def test_rejects_bad_interval(self, star4, quick_sim_config):
        with pytest.raises(Exception):
            ArraySimulator(star4, EnhancedNbc(), quick_sim_config, probe_interval=0)


class TestProbesAreObservational:
    """Probing on must be bit-identical to probing off, however driven."""

    def test_resident_c_loop(self, star4, quick_sim_config):
        if load_kernel() is None:
            pytest.skip("compiled kernel unavailable")
        plain = ArraySimulator(star4, EnhancedNbc(), quick_sim_config).run()[0]
        probed = ArraySimulator(
            star4, EnhancedNbc(), quick_sim_config, probe_interval=25
        ).run()[0]
        _results_equal(plain, probed)
        assert probed.timeseries is not None

    def test_per_cycle_c_path(self, star4, quick_sim_config):
        """``step()``-driven cycles: same full state probed or not."""
        if load_kernel() is None:
            pytest.skip("compiled kernel unavailable")
        plain = ArraySimulator(star4, EnhancedNbc(), quick_sim_config)
        probed = ArraySimulator(
            star4, EnhancedNbc(), quick_sim_config, probe_interval=25
        )
        for _ in range(400):
            plain.step()
            probed.step()
        assert state_digest(plain) == state_digest(probed)
        assert probed.probe_series()["cycles"][-1] == 375

    def test_batch_results_unchanged_by_probes(self, star4, quick_sim_config):
        plain = simulate_batch(star4, EnhancedNbc(), quick_sim_config, 3, engine="array")
        probed = simulate_batch(
            star4, EnhancedNbc(), quick_sim_config, 3, engine="array", probe_interval=40
        )
        for a, b in zip(plain, probed):
            _results_equal(a, b)


class TestPathIdenticalSamples:
    """Stepping part of the run writes the same samples as run() alone."""

    def test_multi_replication_series_match(self, star4, quick_sim_config):
        if load_kernel() is None:
            pytest.skip("compiled kernel unavailable")
        kw = dict(probe_interval=30, seeds=(3, 4, 5))
        whole = ArraySimulator(star4, EnhancedNbc(), quick_sim_config, **kw)
        stepped = ArraySimulator(star4, EnhancedNbc(), quick_sim_config, **kw)
        for _ in range(quick_sim_config.warmup_cycles):
            stepped.step()
        assert whole.run()[0].timeseries == stepped.run()[0].timeseries
