"""Surrogate fits: family identity, saturation awareness, error budget.

The last class is the subsystem's headline validation: on an S4
simulation rate ladder, a fit trained on alternating grid points must
predict every *held-out* simulated point within its own stated error
budget — the contract ``docs/service.md`` makes to clients.
"""

from __future__ import annotations

import math

import pytest

from repro.api.scenario import Scenario, run_units
from repro.campaign.store import ResultStore
from repro.service.surrogate import (
    BUDGET_FLOOR,
    MIN_FIT_POINTS,
    SurrogateIndex,
    family_of_record,
    query_families,
)


def _model_record(rate: float, latency: float, *, saturated: bool = False, **params):
    """A synthetic stored model record at (rate, latency)."""
    p = {"rate": rate, **params}
    return {
        "key": f"k-{sorted(p.items())}",
        "kind": "model",
        "params": p,
        "result": {"latency": latency, "saturated": saturated},
    }


def _index(records) -> SurrogateIndex:
    return SurrogateIndex({r["key"]: r for r in records})


def _model_family(**params) -> str:
    return family_of_record("model", {"rate": 0.01, **params})


class TestFamilyIdentity:
    def test_rate_is_not_part_of_the_family(self):
        a = family_of_record("model", {"rate": 0.01, "order": 4})
        b = family_of_record("model", {"rate": 0.02, "order": 4})
        assert a == b

    def test_other_params_are(self):
        a = family_of_record("model", {"rate": 0.01, "order": 4})
        b = family_of_record("model", {"rate": 0.01, "order": 5})
        assert a != b

    def test_single_and_replicated_sims_share_a_family(self):
        sim = {"generation_rate": 0.004, "order": 4, "engine": "object"}
        batch = {"generation_rate": 0.008, "order": 4, "replications": 8, "engine": "object"}
        assert family_of_record("sim", sim) == family_of_record("sim", batch)

    def test_different_backends_split_sim_families(self):
        a = family_of_record("sim", {"order": 4, "engine": "object"})
        b = family_of_record("sim", {"order": 4, "engine": "array"})
        assert a != b

    def test_unknown_kinds_have_no_family(self):
        assert family_of_record("scale_point", {"n": 4}) is None

    def test_query_families_match_unit_params(self):
        """Service lookups and campaign stores agree on identity."""
        s = Scenario(order=4, message_length=16)
        families = query_families(s)
        sim_unit = s.sim_unit(0.004)
        model_unit = s.model_unit(0.004)
        bound_unit = s.bound_unit(0.004)
        assert families["sim"] == family_of_record(sim_unit.kind, sim_unit.params)
        assert families["model"] == family_of_record(model_unit.kind, model_unit.params)
        assert families["bound"] == family_of_record(bound_unit.kind, bound_unit.params)

    def test_batched_refinement_lands_in_the_query_family(self):
        s = Scenario(order=4, message_length=16)
        batch = s.sim_unit(0.004, replications=4)
        assert query_families(s)["sim"] == family_of_record(batch.kind, batch.params)


class TestSurrogateFit:
    def test_linear_grid_interpolates_exactly(self):
        records = [_model_record(r, 100.0 * r) for r in (0.01, 0.02, 0.03, 0.04)]
        fit = _index(records).fit(_model_family())
        assert fit.predict(0.025) == pytest.approx(2.5)

    def test_grid_points_return_stored_values(self):
        records = [_model_record(r, 100.0 * r) for r in (0.01, 0.02, 0.03)]
        fit = _index(records).fit(_model_family())
        assert fit.predict(0.02) == pytest.approx(2.0)

    def test_no_extrapolation_outside_span(self):
        records = [_model_record(r, 100.0 * r) for r in (0.01, 0.02, 0.03)]
        fit = _index(records).fit(_model_family())
        assert fit.predict(0.005) is None
        assert fit.predict(0.05) is None

    def test_too_few_points_is_unsupported(self):
        records = [_model_record(r, 100.0 * r) for r in (0.01, 0.02)]
        assert len(records) < MIN_FIT_POINTS
        fit = _index(records).fit(_model_family())
        assert not fit.supported
        assert fit.predict(0.015) is None

    def test_saturated_point_sets_the_frontier(self):
        records = [_model_record(r, 100.0 * r) for r in (0.01, 0.02, 0.03, 0.04)]
        records.append(_model_record(0.05, math.inf, saturated=True))
        fit = _index(records).fit(_model_family())
        assert fit.saturation_frontier == 0.05
        assert fit.predict(0.035) is not None
        assert fit.predict(0.05) is None  # at the frontier
        assert fit.predict(0.06) is None  # beyond it

    def test_non_finite_latency_counts_as_saturation(self):
        records = [_model_record(r, 100.0 * r) for r in (0.01, 0.02, 0.03)]
        records.append(_model_record(0.04, math.nan))
        fit = _index(records).fit(_model_family())
        assert fit.saturation_frontier == 0.04

    def test_points_beyond_frontier_are_dropped_from_the_fit(self):
        # A finite point above a saturated one is untrustworthy noise.
        records = [_model_record(r, 100.0 * r) for r in (0.01, 0.02, 0.03)]
        records.append(_model_record(0.04, math.inf, saturated=True))
        records.append(_model_record(0.05, 1.0))
        fit = _index(records).fit(_model_family())
        assert fit.rate_span == (0.01, 0.03)

    def test_linear_grid_budget_is_the_floor(self):
        records = [_model_record(r, 100.0 * r) for r in (0.01, 0.02, 0.03, 0.04)]
        fit = _index(records).fit(_model_family())
        assert fit.error_budget == pytest.approx(BUDGET_FLOOR)

    def test_curvature_raises_the_budget(self):
        records = [
            _model_record(0.01, 1.0),
            _model_record(0.02, 2.0),
            _model_record(0.03, 8.0),  # convex kink
            _model_record(0.04, 9.0),
        ]
        fit = _index(records).fit(_model_family())
        assert fit.error_budget > BUDGET_FLOOR


class TestIndex:
    def test_exact_hit(self):
        records = [_model_record(0.01, 5.0)]
        index = _index(records)
        row = index.exact(_model_family(), 0.01)
        assert row is not None and row.latency == 5.0
        assert index.exact(_model_family(), 0.02) is None

    def test_malformed_records_are_skipped(self):
        index = SurrogateIndex(
            {
                "bad1": {"kind": "model", "params": "not-a-mapping", "result": {}},
                "bad2": {"kind": "model", "params": {"rate": 0.01}},  # no result
                "other": {"kind": "scale_point", "params": {"n": 4}, "result": {}},
                **{r["key"]: r for r in [_model_record(0.01, 5.0)]},
            }
        )
        assert len(index) == 1

    def test_family_sizes(self):
        records = [_model_record(r, r) for r in (0.01, 0.02)]
        records.append(_model_record(0.01, 1.0, order=7))
        sizes = _index(records).family_sizes()
        assert sorted(sizes.values()) == [1, 2]


@pytest.fixture(scope="module")
def s4_sim_ladder(tmp_path_factory):
    """A simulated S4 rate ladder, persisted to a store (shared)."""
    scenario = Scenario(
        order=4, message_length=16, total_vcs=5, quality="smoke", seed=11
    )
    rates = scenario.rate_ladder((0.15, 0.22, 0.29, 0.36, 0.43, 0.5, 0.57))
    store_path = tmp_path_factory.mktemp("surrogate") / "ladder.jsonl"
    units = [scenario.sim_unit(r) for r in rates]
    with ResultStore(store_path) as store:
        run_units(units, store=store)
    return scenario, rates, ResultStore(store_path).load()


class TestHeldOutErrorBudget:
    """The stated budget holds against held-out simulation rows."""

    def _split(self, scenario, rates, records):
        """Train on alternating ladder points, hold out the rest."""
        train_rates = set(rates[::2])
        units = {scenario.sim_unit(r).key(): r for r in rates}
        train, held = {}, {}
        for key, record in records.items():
            rate = units[key]
            (train if rate in train_rates else held)[key] = record
        return train, held

    def test_held_out_sim_rows_land_inside_the_budget(self, s4_sim_ladder):
        scenario, rates, records = s4_sim_ladder
        train, held = self._split(scenario, rates, records)
        assert len(train) >= MIN_FIT_POINTS and held

        family = query_families(scenario)["sim"]
        fit = SurrogateIndex(train).fit(family)
        assert fit is not None and fit.supported

        full = SurrogateIndex(records)
        checked = 0
        for rate in rates[1::2]:
            actual = full.exact(family, rate)
            predicted = fit.predict(rate)
            assert predicted is not None
            rel_error = abs(predicted - actual.latency) / actual.latency
            assert rel_error <= fit.error_budget, (
                f"held-out rate {rate}: error {rel_error:.4f} "
                f"over stated budget {fit.error_budget:.4f}"
            )
            checked += 1
        assert checked == len(rates[1::2])

    def test_budget_is_finite_and_stated(self, s4_sim_ladder):
        scenario, rates, records = s4_sim_ladder
        train, _ = self._split(scenario, rates, records)
        fit = SurrogateIndex(train).fit(query_families(scenario)["sim"])
        assert math.isfinite(fit.error_budget)
        assert fit.error_budget >= BUDGET_FLOOR
