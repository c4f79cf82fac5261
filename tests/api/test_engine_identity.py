"""Every ``sim`` key names its engine, and the array engine is the default.

A stored ``sim`` row without ``engine`` was written when the object
engine was the default and keys left it out.  The store re-keys such a
row as ``engine="object"``, so an object-pinned scenario resumes from it
and a default (array) scenario computes its own row: no row computed on
one engine is filed under the other's key or surrogate family.
"""

from __future__ import annotations

import pytest

from repro.api import Scenario
from repro.api.convert import row_from_unit
from repro.campaign.grid import WorkUnit
from repro.campaign.runner import run_campaign
from repro.campaign.store import ResultStore, ShardedResultStore
from repro.experiments.cli import _campaign_grid, build_parser
from repro.experiments.figure1 import FIGURE1_PANELS, panel_units
from repro.service.surrogate import SurrogateIndex, family_of_record, query_families
from repro.simulation.config import DEFAULT_ENGINE, SimulationConfig
from repro.simulation.spec import SimSpec
from repro.utils.exceptions import ConfigurationError
from repro.validation.workloads import DEFAULT_WORKLOADS, validation_grids

from tests.api.test_key_stability import (
    PANEL_A_RATE_0,
    PANEL_A_SIM_KEY_0_ARRAY,
    PANEL_A_SIM_KEY_0_LEGACY,
    PANEL_A_SIM_KEY_0_OBJECT,
    PANEL_A_SIM_PARAMS_0_LEGACY,
    VALIDATION_RATES,
)

#: A stored object-engine run's payload (``SimulationResult.as_dict``).
_LEGACY_PAYLOAD = {
    "mean_latency": 61.25,
    "mean_network_latency": 58.1,
    "mean_source_wait": 0.4,
    "latency_ci": 0.9,
    "messages_measured": 2300,
    "messages_generated": 2310,
    "messages_completed": 2300,
    "saturated": False,
    "offered_rate": PANEL_A_RATE_0,
    "accepted_rate": 0.00236,
    "mean_multiplexing": 1.05,
    "channel_utilization": 0.07,
    "cycles_run": 10600,
    "backlog": 0,
}

_LAYOUTS = {"flat": ResultStore, "sharded": ShardedResultStore}


def _legacy_store(tmp_path, layout):
    """A store holding the pre-default-flip panel-a line under its old key."""
    path = tmp_path / ("legacy.jsonl" if layout == "flat" else "legacy")
    with _LAYOUTS[layout](path) as store:
        store.append(
            PANEL_A_SIM_KEY_0_LEGACY,
            "sim",
            PANEL_A_SIM_PARAMS_0_LEGACY,
            _LEGACY_PAYLOAD,
            elapsed_s=3.2,
        )
    return path


class TestLegacyRowsMigrate:
    @pytest.mark.parametrize("layout", list(_LAYOUTS))
    def test_engine_less_row_loads_as_object(self, tmp_path, layout):
        path = _legacy_store(tmp_path, layout)
        records = _LAYOUTS[layout](path).load()
        assert list(records) == [PANEL_A_SIM_KEY_0_OBJECT]
        record = records[PANEL_A_SIM_KEY_0_OBJECT]
        assert record["params"] == {**PANEL_A_SIM_PARAMS_0_LEGACY, "engine": "object"}
        assert record["result"] == _LEGACY_PAYLOAD
        row = row_from_unit(WorkUnit(record["kind"], record["params"]), record["result"])
        assert row.engine == "object"

    @pytest.mark.parametrize("layout", list(_LAYOUTS))
    def test_object_scenario_resumes_with_nothing_computed(self, tmp_path, layout):
        path = _legacy_store(tmp_path, layout)
        unit = Scenario(engine="object").sim_unit(PANEL_A_RATE_0)
        assert unit.key() == PANEL_A_SIM_KEY_0_OBJECT
        result = run_campaign([unit], store=_LAYOUTS[layout](path), resume=True)
        assert "1 units, 0 computed, 1 resumed" in result.summary()
        row = row_from_unit(unit, result.results[0])
        assert (row.engine, row.latency) == ("object", _LEGACY_PAYLOAD["mean_latency"])

    def test_default_scenario_computes_a_fresh_array_row(self, tmp_path):
        path = _legacy_store(tmp_path, "flat")
        unit = Scenario(quality="smoke").sim_unit(PANEL_A_RATE_0)
        assert unit.params["engine"] == "array"
        result = run_campaign([unit], store=ResultStore(path), resume=True)
        assert "1 units, 1 computed, 0 resumed" in result.summary()
        records = ResultStore(path).load()
        assert PANEL_A_SIM_KEY_0_OBJECT in records
        assert records[unit.key()]["params"]["engine"] == "array"
        assert row_from_unit(unit, result.results[0]).engine == "array"

    def test_engine_less_units_are_stored_as_object(self, tmp_path):
        """A ``sim`` unit built without ``engine`` (a legacy unit) runs,
        keys and stores as the object engine, so its own rows resume."""
        path = tmp_path / "store.jsonl"
        params = {
            "order": 3, "message_length": 8, "warmup_cycles": 100,
            "measure_cycles": 400, "drain_cycles": 600,
        }
        units = [WorkUnit("sim", {**params, "generation_rate": r}) for r in (0.002, 0.004)]
        first = run_campaign(units, store=ResultStore(path))
        assert [u.params["engine"] for u in first.units] == ["object", "object"]
        assert all('"engine": "object"' in line for line in path.read_text().splitlines())
        again = run_campaign(units, store=ResultStore(path), resume=True)
        assert "2 units, 0 computed, 2 resumed" in again.summary()


class TestSurrogateFamilies:
    def test_object_and_array_rows_never_share_a_family(self):
        scenario = Scenario(order=4, message_length=16, total_vcs=5)
        rates = (0.002, 0.004, 0.006, 0.008)
        records = {}
        for engine, offset in (("object", 0.0), ("array", 100.0)):
            pinned = scenario.replace(engine=engine)
            for rate in rates:
                unit = pinned.sim_unit(rate)
                records[unit.key()] = {
                    "key": unit.key(),
                    "kind": "sim",
                    "params": unit.params,
                    "result": {"mean_latency": offset + 1000 * rate, "saturated": False},
                }
        index = SurrogateIndex(records)
        array = query_families(scenario)["sim"]
        obj = query_families(scenario.replace(engine="object"))["sim"]
        assert array != obj
        for family, engine in ((array, "array"), (obj, "object")):
            fit = index.fit(family)
            assert [p.row.engine for p in fit.points] == [engine] * len(rates)
            assert index.exact(family, rates[0]).engine == engine

    def test_family_names_the_engine(self):
        params = SimSpec(order=4).to_params()
        assert params["engine"] == "array"
        assert family_of_record("sim", params) != family_of_record(
            "sim", {**params, "engine": "object"}
        )


class TestEverySimUnitNamesItsEngine:
    def test_scenario_units(self):
        for replications in (1, 4):
            for engine in ("array", "object"):
                unit = Scenario(engine=engine).sim_unit(0.004, replications=replications)
                assert unit.params["engine"] == engine
        assert Scenario().sim_unit(0.004).params["engine"] == DEFAULT_ENGINE

    def test_figure1_panel_units(self):
        units = panel_units(FIGURE1_PANELS["a"], (PANEL_A_RATE_0,), quality="smoke")
        sims = [u for u in units if u.kind == "sim"]
        assert sims and all(u.params["engine"] == "array" for u in sims)
        assert sims[0].key() != PANEL_A_SIM_KEY_0_ARRAY  # smoke, not quick

    @pytest.mark.parametrize("replications", [1, 3])
    def test_validation_grids(self, replications):
        for engine in ("array", "object"):
            _, sim_grid = validation_grids(
                DEFAULT_WORKLOADS,
                VALIDATION_RATES,
                order=4,
                message_length=16,
                total_vcs=5,
                engine=engine,
                replications=replications,
            )
            assert all(u.params["engine"] == engine for u in sim_grid.expand())

    @pytest.mark.parametrize(
        "extra, engines",
        [
            ([], {"array"}),
            (["--set", "engine=object"], {"object"}),
            (["--axis", "engine=object,array"], {"object", "array"}),
        ],
    )
    def test_cli_grid_expansion(self, extra, engines):
        args = build_parser().parse_args(
            ["campaign", "--kind", "sim", "--axis", "generation_rate=0.004,0.008",
             "--set", "order=4", "--seeds", "2", *extra]
        )
        units = _campaign_grid(args).expand()
        assert {u.params["engine"] for u in units} == engines
        assert len(units) == 4 * len(engines)

    def test_cli_spec_file_expansion(self, tmp_path):
        spec = tmp_path / "grid.json"
        spec.write_text(
            '{"kind": "sim", "axes": {"generation_rate": [0.004, 0.008]},'
            ' "pinned": {"order": 4}}'
        )
        args = build_parser().parse_args(["campaign", "--spec", str(spec)])
        assert all(u.params["engine"] == "array" for u in _campaign_grid(args).expand())

    def test_model_grids_stay_engine_free(self):
        args = build_parser().parse_args(
            ["campaign", "--kind", "model", "--axis", "rate=0.004,0.008"]
        )
        assert all("engine" not in u.params for u in _campaign_grid(args).expand())


class TestDefaultEngine:
    def test_one_declared_default(self):
        assert DEFAULT_ENGINE == "array"
        assert SimulationConfig().engine == DEFAULT_ENGINE
        assert Scenario().engine == DEFAULT_ENGINE

    def test_engine_less_params_mean_object(self):
        spec = SimSpec.from_params({"order": 4, "generation_rate": 0.004})
        assert spec.config.engine == "object"

    def test_s7_default_engine_refuses_naming_object(self):
        scenario = Scenario(order=7, message_length=16, quality="smoke")
        with pytest.raises(ConfigurationError, match="engine='object'"):
            scenario.simulate(0.0005)
