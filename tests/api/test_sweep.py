"""Scenario execution paths: model / simulate / sweep / validate.

Acceptance (ISSUE 4): ``Scenario.sweep()`` over (rate x workload x
engine) returns one ResultSet mixing model and sim rows under the same
schema.
"""

import math

import pytest

from repro.api import ResultSet, Scenario
from repro.utils.exceptions import ConfigurationError

#: Small, fast scenario shared by the execution tests.
BASE = Scenario(order=4, message_length=8, total_vcs=5, quality="smoke")


class TestModelPath:
    def test_single_rate(self):
        rows = BASE.model(0.004)
        assert len(rows) == 1
        row = rows[0]
        assert row.provenance == "model" and row.engine == "model"
        assert row.rate == 0.004
        assert row.latency > 0 and not row.saturated
        assert math.isnan(row.latency_lo)
        assert row.meta["multiplexing"] >= 1.0

    def test_rate_list_order(self):
        rows = BASE.model((0.002, 0.004, 0.006))
        assert [r.rate for r in rows] == [0.002, 0.004, 0.006]
        assert rows.latencies() == sorted(rows.latencies())

    def test_matches_direct_model_spec(self):
        direct = BASE.model_spec().build().evaluate(0.004)
        assert BASE.model(0.004)[0].latency == direct.latency

    def test_empty_rates_rejected(self):
        with pytest.raises(ConfigurationError, match="rate"):
            BASE.model(())


class TestSimulatePath:
    def test_single_run_row(self):
        rows = BASE.simulate(0.004)
        row = rows[0]
        assert row.provenance == "sim"
        assert row.engine == "array"
        assert row.algorithm == "enhanced_nbc"
        assert row.replications == 1
        assert row.seed == 0
        assert row.latency > 0
        assert row.meta["messages_measured"] > 0

    def test_matches_direct_sim_spec(self):
        direct = BASE.sim_spec(0.004).run()
        assert BASE.simulate(0.004)[0].latency == direct.mean_latency

    def test_replications_pool_into_one_row(self):
        rows = BASE.simulate(0.004, replications=3)
        assert len(rows) == 1
        row = rows[0]
        assert row.replications == 3
        assert row.latency > 0
        assert row.ci_halfwidth > 0  # across-replication CI

    def test_array_engine_row(self):
        rows = BASE.replace(engine="array").simulate(0.004)
        assert rows[0].engine == "array"
        assert rows[0].latency > 0


class TestSweep:
    def test_mixed_provenance_single_result_set(self):
        """The acceptance criterion: rate x workload x engine, one schema."""
        rows = BASE.sweep(
            {
                "rate": (0.003, 0.006),
                "workload": ("uniform", "hotspot(fraction=0.1)"),
                "engine": ("model", "object"),
            }
        )
        assert isinstance(rows, ResultSet)
        assert len(rows) == 8
        assert len(rows.where(provenance="model")) == 4
        assert len(rows.where(provenance="sim")) == 4
        assert {r.workload for r in rows} == {"uniform", "hotspot(fraction=0.1)"}
        # every row shares the one schema: serialises and round-trips
        back = ResultSet.from_jsonl(rows.to_jsonl())
        assert len(back) == len(rows)
        comps = rows.comparisons()
        assert set(comps) == {"uniform", "hotspot(fraction=0.1)"}
        for comp in comps.values():
            assert comp.stable_points == 2

    def test_engine_axis_optional_defaults_to_model(self):
        rows = BASE.sweep({"rate": (0.003,)})
        assert [r.provenance for r in rows] == ["model"]

    def test_axis_values_accept_grid_grammar(self):
        rows = BASE.sweep({"rate": "0.002:0.004:3"})
        assert [r.rate for r in rows] == [0.002, 0.003, 0.004]

    def test_scenario_field_axes(self):
        rows = BASE.sweep({"message_length": (8, 16), "rate": (0.003,)})
        assert [r.message_length for r in rows] == [8, 16]
        assert rows[0].latency < rows[1].latency

    def test_rate_axis_required(self):
        with pytest.raises(ConfigurationError, match="rate"):
            BASE.sweep({"workload": ("uniform",)})

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown sweep axis"):
            BASE.sweep({"rate": (0.003,), "wormhole": (1,)})

    def test_unknown_engine_value_rejected(self):
        with pytest.raises(ConfigurationError, match="engine axis"):
            BASE.sweep({"rate": (0.003,), "engine": ("quantum",)})

    def test_store_resume_interop(self, tmp_path):
        """Sweep rows persist to a campaign store and resume from it."""
        store = tmp_path / "sweep.jsonl"
        axes = {"rate": (0.003, 0.004), "engine": ("model", "object")}
        first = BASE.sweep(axes, store=store)
        again = BASE.sweep(axes, store=store, resume=True)
        assert len(again) == len(first) == 4
        # resumed rows come from the stored JSON payloads but project
        # onto the same schema and fingerprints
        for a, b in zip(first, again):
            assert a.spec == b.spec
            assert a.latency == pytest.approx(b.latency, abs=1e-3)

    def test_sweep_replications_batches_sim_rows(self):
        rows = BASE.sweep(
            {"rate": (0.003,), "engine": ("object",)}, replications=2
        )
        assert rows[0].replications == 2


class TestValidatePath:
    def test_validate_returns_paired_rows(self):
        rows = BASE.validate(load_fractions=(0.3,))
        assert len(rows) == 2
        assert len(rows.where(provenance="model")) == 1
        assert len(rows.where(provenance="sim")) == 1
        comp = rows.comparisons()["uniform"]
        assert comp.stable_points == 1
        assert comp.mean_relative_error < 0.5

    def test_validate_multiple_workloads(self):
        rows = BASE.validate(
            workloads=("uniform", "hotspot(fraction=0.1)"), load_fractions=(0.3,)
        )
        assert len(rows) == 4
        assert set(rows.comparisons()) == {"uniform", "hotspot(fraction=0.1)"}

    def test_validate_respects_scenario_algorithm(self):
        """A non-default routing algorithm must reach the sim units."""
        rows = BASE.replace(algorithm="nbc").validate(load_fractions=(0.3,))
        sim = rows.where(provenance="sim")[0]
        assert sim.algorithm == "nbc"
        # ... and the default stays out of the params so keys hold
        default_rows = BASE.validate(load_fractions=(0.3,))
        assert default_rows.where(provenance="sim")[0].algorithm == "enhanced_nbc"
