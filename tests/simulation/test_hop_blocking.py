"""Tests for the per-hop blocking instrumentation."""

import math

import pytest

from repro.routing import EnhancedNbc
from repro.simulation import SimulationConfig, simulate
from repro.simulation.metrics import HopBlockingStats
from repro.topology import StarGraph


class TestHopBlockingStats:
    def test_record_and_query(self):
        stats = HopBlockingStats(max_hops=4)
        stats.record(1, 0.0)
        stats.record(1, 3.0)
        stats.record(2, 0.0)
        assert stats.blocking_probability(1) == pytest.approx(0.5)
        assert stats.mean_wait_when_blocked(1) == pytest.approx(3.0)
        assert stats.mean_blocking_delay(1) == pytest.approx(1.5)
        assert stats.blocking_probability(2) == 0.0

    def test_empty_hop_is_nan(self):
        stats = HopBlockingStats(max_hops=3)
        assert math.isnan(stats.blocking_probability(2))
        assert math.isnan(stats.mean_wait_when_blocked(2))

    def test_hop_index_clamped(self):
        stats = HopBlockingStats(max_hops=2)
        stats.record(99, 1.0)
        assert stats.blocking_probability(2) == 1.0

    def test_as_rows_skips_idle_hops(self):
        stats = HopBlockingStats(max_hops=4)
        stats.record(2, 0.0)
        rows = stats.as_rows()
        assert len(rows) == 1
        assert rows[0]["hop"] == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            HopBlockingStats(0)

    def test_merge_pools_counts_and_waits(self):
        a = HopBlockingStats(max_hops=3)
        a.record(1, 0.0)
        a.record(1, 4.0)
        b = HopBlockingStats(max_hops=2)
        b.record(1, 2.0)
        b.record(2, 0.0)
        merged = HopBlockingStats.merge([a, b])
        assert merged.max_hops == 3
        assert merged.blocking_probability(1) == pytest.approx(2 / 3)
        assert merged.mean_wait_when_blocked(1) == pytest.approx(3.0)
        assert merged.blocking_probability(2) == 0.0

    def test_merge_empty_rejected(self):
        with pytest.raises(ValueError):
            HopBlockingStats.merge([])


class TestPooledBatchHops:
    def test_summarize_batch_exposes_pooled_hop_table(self):
        """ISSUE satellite: pooled per-hop blocking from summarize_batch."""
        from repro.simulation.backends import simulate_batch, summarize_batch

        cfg = SimulationConfig(
            message_length=8,
            generation_rate=0.01,
            total_vcs=6,
            warmup_cycles=200,
            measure_cycles=2_000,
            drain_cycles=2_000,
            seed=0,
        )
        batch = simulate_batch(StarGraph(4), EnhancedNbc(), cfg, 3, engine="array")
        row = summarize_batch(batch)
        rows = row["hop_blocking"]
        assert rows and rows[0]["hop"] == 1
        # pooled requests are the per-replication sums
        per_rep = [
            {r["hop"]: r["requests"] for r in res.hop_blocking.as_rows()}
            for res in batch
        ]
        assert rows[0]["requests"] == sum(m.get(1, 0) for m in per_rep)
        for r in rows:
            assert 0.0 <= r["p_block"] <= 1.0


class TestEngineIntegration:
    @pytest.fixture(scope="class")
    def result(self):
        cfg = SimulationConfig(
            message_length=16,
            generation_rate=0.02,
            total_vcs=6,
            warmup_cycles=500,
            measure_cycles=4_000,
            drain_cycles=5_000,
            seed=3,
            engine="object",
        )
        return simulate(StarGraph(4), EnhancedNbc(), cfg)

    def test_requests_match_hops_travelled(self, result):
        """Total recorded hop allocations == sum of measured distances."""
        stats = result.hop_blocking
        total = sum(row["requests"] for row in stats.as_rows())
        # every measured message records one allocation per hop; messages
        # measured but uncompleted contribute partial counts
        assert total >= result.messages_measured  # at least one hop each
        assert total <= result.messages_measured * StarGraph(4).diameter()

    def test_probabilities_are_probabilities(self, result):
        for row in result.hop_blocking.as_rows():
            assert 0.0 <= row["p_block"] <= 1.0
            assert row["blocking_delay"] >= 0.0

    def test_first_hop_counts_dominate(self, result):
        """Hop-1 requests >= hop-k requests (every route has a first hop)."""
        rows = {r["hop"]: r["requests"] for r in result.hop_blocking.as_rows()}
        for k, count in rows.items():
            assert rows[1] >= count

    def test_zero_load_no_blocking(self):
        cfg = SimulationConfig(
            message_length=8,
            generation_rate=0.0005,
            total_vcs=6,
            warmup_cycles=200,
            measure_cycles=4_000,
            drain_cycles=2_000,
            seed=1,
            engine="object",
        )
        res = simulate(StarGraph(4), EnhancedNbc(), cfg)
        for row in res.hop_blocking.as_rows():
            assert row["p_block"] <= 0.05
