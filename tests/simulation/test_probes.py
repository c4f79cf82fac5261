"""In-kernel time-series probes: opt-in, observational, path-identical.

The contract under test (see docs/observability.md): ``probe_interval=k``
attaches an aggregate time-series dict to the batch's first result, the
default stays ``None`` on every path, probing never changes a single
simulation output, and the C megakernel and the numpy fallback write
bit-identical samples.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.routing import EnhancedNbc
from repro.simulation import ArraySimulator, simulate_batch
from repro.simulation.ckernel import load_kernel

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
    """Probing on must be bit-identical to probing off, on every path."""

    def _pair(self, star4, cfg, *, no_resident=False):
        def run(**kw):
            sim = ArraySimulator(star4, EnhancedNbc(), cfg, **kw)
            sim._no_resident = no_resident
            return sim.run()[0]

        plain = run()
        probed = run(probe_interval=25)
        _results_equal(plain, probed)
        return probed

    def test_resident_c_loop(self, star4, quick_sim_config):
        if load_kernel() is None:
            pytest.skip("compiled kernel unavailable")
        probed = self._pair(star4, quick_sim_config)
        assert probed.timeseries is not None

    def test_per_cycle_c_path(self, star4, quick_sim_config):
        if load_kernel() is None:
            pytest.skip("compiled kernel unavailable")
        probed = self._pair(star4, quick_sim_config, no_resident=True)
        assert probed.timeseries is not None

    def test_numpy_fallback(self, star4, quick_sim_config):
        plain = ArraySimulator(star4, EnhancedNbc(), quick_sim_config)
        plain._ck_bundle = None
        plain._ck = None
        probed = ArraySimulator(
            star4, EnhancedNbc(), quick_sim_config, probe_interval=25
        )
        probed._ck_bundle = None
        probed._ck = None
        _results_equal(plain.run()[0], probed.run()[0])

    def test_batch_results_unchanged_by_probes(self, star4, quick_sim_config):
        plain = simulate_batch(star4, EnhancedNbc(), quick_sim_config, 3, engine="array")
        probed = simulate_batch(
            star4, EnhancedNbc(), quick_sim_config, 3, engine="array", probe_interval=40
        )
        for a, b in zip(plain, probed):
            _results_equal(a, b)


class TestPathIdenticalSamples:
    """The C kernel and the numpy fallback write the same samples."""

    def _series(self, star4, cfg, *, force_numpy=False, no_resident=False):
        sim = ArraySimulator(star4, EnhancedNbc(), cfg, probe_interval=25)
        sim._no_resident = no_resident
        if force_numpy:
            sim._ck_bundle = None
            sim._ck = None
        return sim.run()[0].timeseries

    def test_resident_c_matches_numpy(self, star4, quick_sim_config):
        if load_kernel() is None:
            pytest.skip("compiled kernel unavailable")
        assert self._series(star4, quick_sim_config) == self._series(
            star4, quick_sim_config, force_numpy=True
        )

    def test_per_cycle_c_matches_numpy(self, star4, quick_sim_config):
        if load_kernel() is None:
            pytest.skip("compiled kernel unavailable")
        assert self._series(star4, quick_sim_config, no_resident=True) == self._series(
            star4, quick_sim_config, force_numpy=True
        )

    def test_multi_replication_series_match(self, star4, quick_sim_config):
        if load_kernel() is None:
            pytest.skip("compiled kernel unavailable")
        kw = dict(probe_interval=30, seeds=(3, 4, 5))
        c_sim = ArraySimulator(star4, EnhancedNbc(), quick_sim_config, **kw)
        np_sim = ArraySimulator(star4, EnhancedNbc(), quick_sim_config, **kw)
        np_sim._ck_bundle = None
        np_sim._ck = None
        assert c_sim.run()[0].timeseries == np_sim.run()[0].timeseries
