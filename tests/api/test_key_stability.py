"""Campaign content-hash keys must not move by accident.

Model keys for default uniform scenarios are byte-identical to the
pre-facade HEAD (PR 3) digests below: the facade must reproduce them or
every existing campaign store silently loses resume.

Sim keys moved once, on purpose, when the array engine became the
default: every ``sim`` key now names its ``engine``.  The pre-facade sim
digests (``*_LEGACY``) stay pinned as the store migration's input — a
stored row under such a key is an object-engine run, and
:func:`~repro.campaign.store.migrate_record` re-keys it to the
``*_OBJECT`` digest an object-pinned scenario builds.  Default scenarios
build the ``*_ARRAY`` digests.
"""

from repro.api import Scenario
from repro.campaign.grid import canonical_key
from repro.campaign.store import migrate_record
from repro.experiments.figure1 import FIGURE1_PANELS, load_grid, panel_units
from repro.validation.workloads import DEFAULT_WORKLOADS, validation_grids

# Pinned at commit 0550869 (pre-facade):
#   starnet figure1 --panel a --quality quick --seed 0, first rate point.
PANEL_A_RATE_0 = 0.002361
PANEL_A_MODEL_KEY_0 = "ca03252510654f14f0809a53d9e32230fe5f2ed66121467b1df323b88db7f900"
PANEL_A_SIM_KEY_0_LEGACY = "4ec165072b951407c2096dc4f25045791863ecbc49b80b85d889a33bd42e9fe8"
# Engine-naming sim keys of the same point.
PANEL_A_SIM_KEY_0_OBJECT = "4657aa2c52606ef7d1125ade3a8541fd295788bb90236a2468fe031239865021"
PANEL_A_SIM_KEY_0_ARRAY = "2774ec44852c2af5cc42f0ef7ff337e24a01fbec7c9a8b61923a775146247eee"
PANEL_A_SIM_PARAMS_0_LEGACY = {
    "topology": "star",
    "order": 5,
    "algorithm": "enhanced_nbc",
    "generation_rate": PANEL_A_RATE_0,
    "warmup_cycles": 2500,
    "measure_cycles": 8000,
    "drain_cycles": 10000,
}

#   validate default suite (order=4, M=16, V=5, fractions 0.2/0.4/0.6),
#   first unit of each grid.
VALIDATION_RATES = (0.005159, 0.010317, 0.015476)
VALIDATION_MODEL_KEY_0 = "6afa271cb50dd5541fd95fc0e82e047fe92010191904f8154729b3859166a44d"
VALIDATION_SIM_KEY_0_LEGACY = "43297c493b7e9f4a7a22fed953e84ad9eb1f2c204ee7fd8cf697a6c6ce8c86b3"
VALIDATION_SIM_KEY_0_OBJECT = "08a9ef3df1a0d8926ad1b46adb6b7abe26a82e2cd4a9118824abb16f49d0ca59"
VALIDATION_SIM_KEY_0_ARRAY = "9814f1d318897d0edda41c1fcf42dabf9d724c067cc73013cb138b5247639f4b"


class TestFigure1Keys:
    def test_rate_grid_unchanged(self):
        assert load_grid(FIGURE1_PANELS["a"])[0] == PANEL_A_RATE_0

    def test_panel_a_first_model_unit_key(self):
        units = panel_units(
            FIGURE1_PANELS["a"], (PANEL_A_RATE_0,), include_sim=True, quality="quick"
        )
        assert units[0].kind == "model"
        assert units[0].params == {"rate": PANEL_A_RATE_0}
        assert units[0].key() == PANEL_A_MODEL_KEY_0

    def test_panel_a_first_sim_unit_key(self):
        units = panel_units(
            FIGURE1_PANELS["a"], (PANEL_A_RATE_0,), include_sim=True, quality="quick"
        )
        assert units[1].kind == "sim"
        assert units[1].params == {**PANEL_A_SIM_PARAMS_0_LEGACY, "engine": "array"}
        assert units[1].key() == PANEL_A_SIM_KEY_0_ARRAY

    def test_facade_units_match_directly(self):
        scenario = Scenario()  # the default scenario IS panel a, M=32
        assert scenario.model_unit(PANEL_A_RATE_0).key() == PANEL_A_MODEL_KEY_0
        assert scenario.sim_unit(PANEL_A_RATE_0).key() == PANEL_A_SIM_KEY_0_ARRAY
        pinned = scenario.replace(engine="object")
        assert pinned.sim_unit(PANEL_A_RATE_0).key() == PANEL_A_SIM_KEY_0_OBJECT

    def test_legacy_sim_key_migrates_to_the_object_key(self):
        assert canonical_key("sim", PANEL_A_SIM_PARAMS_0_LEGACY) == PANEL_A_SIM_KEY_0_LEGACY
        record = migrate_record(
            {
                "key": PANEL_A_SIM_KEY_0_LEGACY,
                "kind": "sim",
                "params": PANEL_A_SIM_PARAMS_0_LEGACY,
                "result": {},
            }
        )
        assert record["params"]["engine"] == "object"
        assert record["key"] == PANEL_A_SIM_KEY_0_OBJECT


class TestValidationKeys:
    def test_default_grid_keys(self):
        model_grid, sim_grid = validation_grids(
            DEFAULT_WORKLOADS,
            VALIDATION_RATES,
            order=4,
            message_length=16,
            total_vcs=5,
        )
        assert model_grid.expand()[0].key() == VALIDATION_MODEL_KEY_0
        assert sim_grid.expand()[0].key() == VALIDATION_SIM_KEY_0_ARRAY

    def test_object_grid_keys_match_migrated_legacy_keys(self):
        _, sim_grid = validation_grids(
            DEFAULT_WORKLOADS,
            VALIDATION_RATES,
            order=4,
            message_length=16,
            total_vcs=5,
            engine="object",
        )
        unit = sim_grid.expand()[0]
        assert unit.key() == VALIDATION_SIM_KEY_0_OBJECT
        legacy = {k: v for k, v in unit.params.items() if k != "engine"}
        assert canonical_key("sim", legacy) == VALIDATION_SIM_KEY_0_LEGACY
        migrated = migrate_record({"kind": "sim", "params": legacy})
        assert migrated["key"] == VALIDATION_SIM_KEY_0_OBJECT

    def test_scenario_routed_grid_keys(self):
        """A default scenario routes to byte-identical grid keys."""
        scenario = Scenario(order=4, message_length=16, total_vcs=5)
        model_grid, sim_grid = validation_grids(
            DEFAULT_WORKLOADS,
            VALIDATION_RATES,
            order=scenario.order,
            message_length=scenario.message_length,
            total_vcs=scenario.total_vcs,
            scenario=scenario,
        )
        assert model_grid.expand()[0].key() == VALIDATION_MODEL_KEY_0
        assert sim_grid.expand()[0].key() == VALIDATION_SIM_KEY_0_ARRAY


class TestSeedIndependence:
    def test_model_keys_ignore_sim_seed(self):
        """Model units carry no sim-side state: seed never enters keys."""
        a = Scenario(seed=0).model_unit(0.004).key()
        b = Scenario(seed=99).model_unit(0.004).key()
        assert a == b

    def test_sim_keys_depend_on_seed(self):
        a = Scenario(seed=0).sim_unit(0.004).key()
        b = Scenario(seed=1).sim_unit(0.004).key()
        assert a != b
