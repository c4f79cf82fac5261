"""QueryEngine resolution ladder: warm -> surrogate -> cold -> refined."""

from __future__ import annotations

import pytest

from repro.api.scenario import Scenario
from repro.service.engine import QueryEngine
from repro.service.query import Query


@pytest.fixture(scope="module")
def seeded(tmp_path_factory):
    """A sharded store seeded with an S4 model rate ladder + its engine."""
    store_dir = tmp_path_factory.mktemp("engine") / "store"
    scenario = Scenario(order=4, message_length=16, total_vcs=5, quality="smoke")
    rates = scenario.rate_ladder((0.2, 0.3, 0.4, 0.5, 0.6, 0.7))
    scenario.sweep({"rate": rates}, store=str(store_dir))
    return QueryEngine(store_dir), scenario, rates


class TestResolutionLadder:
    def test_warm_hit_returns_the_stored_row(self, seeded):
        engine, scenario, rates = seeded
        row = engine.answer(Query(scenario=scenario, rate=rates[2]))
        assert row.provenance == "model"
        assert row.meta["served"] == "warm"
        assert row.rate == rates[2]

    def test_surrogate_between_grid_points(self, seeded):
        engine, scenario, rates = seeded
        mid = 0.5 * (rates[1] + rates[2])
        row = engine.answer(Query(scenario=scenario, rate=mid))
        assert row.provenance == "surrogate"
        assert row.meta["served"] == "surrogate"
        assert row.meta["error_budget"] > 0
        assert row.meta["source"] == "model"
        # The interpolation lands between its bracketing stored values.
        lo = engine.answer(Query(scenario=scenario, rate=rates[1])).latency
        hi = engine.answer(Query(scenario=scenario, rate=rates[2])).latency
        assert min(lo, hi) <= row.latency <= max(lo, hi)

    def test_surrogate_bounds_carry_the_budget(self, seeded):
        engine, scenario, rates = seeded
        row = engine.answer(Query(scenario=scenario, rate=0.5 * (rates[3] + rates[4])))
        budget = row.meta["error_budget"]
        assert row.latency_lo == pytest.approx(row.latency * (1 - budget))
        assert row.latency_hi == pytest.approx(row.latency * (1 + budget))

    def test_max_error_rejects_a_too_loose_surrogate(self, seeded):
        engine, scenario, rates = seeded
        mid = 0.5 * (rates[1] + rates[2])
        row = engine.answer(
            Query(scenario=scenario, rate=mid, max_error=1e-9, refine=False)
        )
        assert row.meta["served"] == "cold"

    def test_outside_the_ladder_goes_cold(self, seeded):
        engine, scenario, rates = seeded
        row = engine.answer(
            Query(scenario=scenario, rate=rates[0] / 10, refine=False)
        )
        assert row.meta["served"] == "cold"
        assert row.provenance == "model"

    def test_unknown_scenario_goes_cold(self, seeded):
        engine, _, _ = seeded
        other = Scenario(order=5, message_length=64, quality="smoke")
        row = engine.answer(Query(scenario=other, rate=0.002, refine=False))
        assert row.meta["served"] == "cold"

    def test_every_answer_reports_service_time(self, seeded):
        engine, scenario, rates = seeded
        row = engine.answer(Query(scenario=scenario, rate=rates[0]))
        assert row.meta["service_ms"] >= 0


class TestRefinement:
    def test_cold_query_enqueues_then_refines_to_warm(self, tmp_path):
        scenario = Scenario(order=4, message_length=16, quality="smoke", seed=3)
        engine = QueryEngine(tmp_path / "store")
        rate = scenario.rate_ladder((0.3,))[0]

        cold = engine.answer(Query(scenario=scenario, rate=rate))
        assert cold.meta["served"] == "cold"
        assert engine.pending_refinements == 1

        assert engine.refine() == 1
        assert engine.pending_refinements == 0

        warm = engine.answer(Query(scenario=scenario, rate=rate))
        assert warm.meta["served"] == "warm"
        assert warm.provenance == "sim"  # measured row beats the cold model row
        assert warm.engine == "array"  # refinement runs on the default engine

    def test_refinements_counted_by_engine(self, tmp_path):
        """``starnet_refinements_total`` names the engine each unit ran on,
        and an object-pinned query is answered only by its object row."""
        scenario = Scenario(order=4, message_length=16, quality="smoke", seed=3)
        reference = scenario.replace(engine="object")
        engine = QueryEngine(tmp_path / "store")
        assert 'starnet_refinements_total{engine="array"} 0' in engine.registry.render()
        engine.answer(Query(scenario=scenario, rate=0.004))
        engine.answer(Query(scenario=scenario, rate=0.005))
        engine.answer(Query(scenario=reference, rate=0.004))
        assert engine.refine() == 3
        text = engine.registry.render()
        assert 'starnet_refinements_total{engine="array"} 2' in text
        assert 'starnet_refinements_total{engine="object"} 1' in text
        assert engine.counters["refined"] == 3
        for pinned, name in ((scenario, "array"), (reference, "object")):
            row = engine.answer(Query(scenario=pinned, rate=0.004, refine=False))
            assert (row.meta["served"], row.engine) == ("warm", name)

    def test_repeated_cold_queries_dedupe_refinement(self, tmp_path):
        scenario = Scenario(order=4, message_length=16, quality="smoke")
        engine = QueryEngine(tmp_path / "store")
        for _ in range(3):
            engine.answer(Query(scenario=scenario, rate=0.004))
        assert engine.pending_refinements == 1

    def test_refine_disabled_engine_wide(self, tmp_path):
        engine = QueryEngine(tmp_path / "store", refine=False)
        engine.answer(Query(scenario=Scenario(quality="smoke"), rate=0.002))
        assert engine.pending_refinements == 0

    def test_refine_disabled_per_query(self, tmp_path):
        engine = QueryEngine(tmp_path / "store")
        engine.answer(
            Query(scenario=Scenario(quality="smoke"), rate=0.002, refine=False)
        )
        assert engine.pending_refinements == 0

    def test_refined_row_persists_across_engines(self, tmp_path):
        """Refinement lands in the store, not just this engine's index."""
        scenario = Scenario(order=4, message_length=16, quality="smoke", seed=5)
        store = tmp_path / "store"
        first = QueryEngine(store)
        first.answer(Query(scenario=scenario, rate=0.004))
        first.refine()

        second = QueryEngine(store)
        row = second.answer(Query(scenario=scenario, rate=0.004))
        assert row.meta["served"] == "warm"


class TestStats:
    def test_counters_track_the_ladder(self, tmp_path):
        scenario = Scenario(order=4, message_length=16, quality="smoke")
        store = tmp_path / "store"
        rates = scenario.rate_ladder((0.2, 0.35, 0.5, 0.65))
        scenario.sweep({"rate": rates}, store=str(store))
        engine = QueryEngine(store)

        engine.answer(Query(scenario=scenario, rate=rates[1]))
        engine.answer(Query(scenario=scenario, rate=0.5 * (rates[1] + rates[2])))
        engine.answer(Query(scenario=scenario, rate=rates[0] / 10, refine=False))

        stats = engine.stats()
        assert stats["queries"] == 3
        assert stats["warm_hits"] == 1
        assert stats["surrogate_hits"] == 1
        assert stats["cold_misses"] == 1
        assert stats["indexed_records"] == len(rates)
        assert stats["families"] == 1

    def test_index_refreshes_when_the_store_grows(self, tmp_path):
        scenario = Scenario(order=4, message_length=16, quality="smoke")
        store = tmp_path / "store"
        engine = QueryEngine(store)
        assert engine.stats()["indexed_records"] == 0
        scenario.sweep({"rate": scenario.rate_ladder((0.3,))}, store=str(store))
        assert engine.stats()["indexed_records"] == 1
