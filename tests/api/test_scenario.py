"""Scenario facade: canonicalisation, spec round-trips, validation."""

import pickle

import pytest

from repro.api import Scenario
from repro.api.quality import quality_windows
from repro.core.spec import ModelSpec
from repro.simulation import SimSpec, SimulationConfig
from repro.utils.exceptions import ConfigurationError


class TestCanonicalisation:
    def test_workload_canonicalised_once(self):
        s = Scenario(workload="uniform+poisson")
        assert s.workload == "uniform"
        s = Scenario(workload="hotspot(fraction=0.10)+onoff(burst=8,duty=0.25)")
        assert s.workload == "hotspot(fraction=0.1)+onoff(burst=8,duty=0.25)"

    def test_equivalent_spellings_share_fingerprint(self):
        a = Scenario(workload="uniform+poisson")
        b = Scenario(workload="uniform")
        assert a == b
        assert a.fingerprint() == b.fingerprint()

    def test_topology_validated(self):
        with pytest.raises(ConfigurationError, match="topology"):
            Scenario(topology="torus")

    def test_engine_validated(self):
        with pytest.raises(ConfigurationError, match="engine"):
            Scenario(engine="gpu")

    def test_quality_validated(self):
        with pytest.raises(ConfigurationError, match="quality"):
            Scenario(quality="ultra")

    def test_vc_split_must_be_complete(self):
        with pytest.raises(ConfigurationError, match="together"):
            Scenario(num_adaptive=2)

    def test_bad_workload_rejected_at_construction(self):
        with pytest.raises(ConfigurationError):
            Scenario(workload="tornado")


class TestParamsRoundTrip:
    def test_defaults_omitted(self):
        assert Scenario().to_params() == {}
        assert Scenario(order=4).to_params() == {"order": 4}

    def test_round_trip(self):
        s = Scenario(
            order=4,
            message_length=16,
            total_vcs=5,
            workload="hotspot(fraction=0.2)",
            variant="paper",
            quality="smoke",
            engine="array",
            seed=7,
        )
        assert Scenario.from_params(s.to_params()) == s

    def test_unknown_params_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown Scenario"):
            Scenario.from_params({"bogus": 1})

    def test_picklable(self):
        s = Scenario(order=4, workload="hotspot(fraction=0.1)")
        assert pickle.loads(pickle.dumps(s)) == s

    def test_replace_revalidates(self):
        s = Scenario()
        assert s.replace(workload="uniform+poisson").workload == "uniform"
        with pytest.raises(ConfigurationError):
            s.replace(engine="gpu")


class TestModelSpecBridge:
    def test_uniform_maps_to_none_workload(self):
        """The paper's closed-form pipeline — not the non-uniform extension."""
        assert Scenario().model_spec() == ModelSpec()
        assert Scenario().model_spec().workload is None

    def test_non_uniform_carries_workload(self):
        spec = Scenario(order=4, workload="hotspot(fraction=0.1)").model_spec()
        assert spec.workload == "hotspot(fraction=0.1)"

    def test_round_trip_through_model_spec(self):
        s = Scenario(
            order=4,
            message_length=16,
            total_vcs=9,
            variant="paper",
            num_adaptive=3,
            num_escape=6,
            workload="hotspot(fraction=0.1)",
            damping=0.3,
        )
        assert Scenario.from_model_spec(s.model_spec()) == s

    def test_model_spec_scenario_method(self):
        spec = ModelSpec(order=4, message_length=16)
        assert spec.scenario(seed=3).model_spec() == spec
        assert spec.scenario(seed=3).seed == 3

    def test_params_dict_equivalence(self):
        """Scenario -> ModelSpec -> params == hand-built ModelSpec params."""
        s = Scenario(order=4, message_length=16, total_vcs=9, variant="paper")
        direct = ModelSpec(order=4, message_length=16, total_vcs=9, variant="paper")
        assert s.model_spec().to_params() == direct.to_params()


class TestSimSpecBridge:
    def test_sim_config_uses_quality_windows(self):
        cfg = Scenario(quality="smoke").sim_config(0.004)
        assert cfg.warmup_cycles == quality_windows("smoke")["warmup_cycles"]
        assert cfg.generation_rate == 0.004
        assert cfg.workload is None  # uniform stays on the default path

    def test_explicit_windows_override_preset(self):
        cfg = Scenario(quality="smoke", measure_cycles=1234).sim_config(0.004)
        assert cfg.measure_cycles == 1234
        assert cfg.warmup_cycles == quality_windows("smoke")["warmup_cycles"]

    def test_round_trip_through_sim_spec(self):
        s = Scenario(
            order=4,
            algorithm="nbc",
            message_length=16,
            total_vcs=5,
            workload="hotspot(fraction=0.1)",
            quality="smoke",
            engine="array",
            seed=11,
        )
        back = Scenario.from_sim_spec(s.sim_spec(0.004))
        assert back == s

    def test_round_trip_with_explicit_windows(self):
        s = Scenario(warmup_cycles=111, measure_cycles=222, drain_cycles=333)
        back = Scenario.from_sim_spec(s.sim_spec(0.001))
        assert back.sim_spec(0.001) == s.sim_spec(0.001)

    def test_sim_spec_scenario_method(self):
        spec = SimSpec(
            topology="star",
            order=4,
            algorithm="enhanced_nbc",
            config=SimulationConfig(generation_rate=0.002, seed=5),
        )
        # windows match no preset -> explicit overrides reproduce them
        assert spec.scenario().sim_spec(0.002) == spec

    def test_exotic_sim_knobs_rejected(self):
        spec = SimSpec(config=SimulationConfig(buffer_depth=4))
        with pytest.raises(ConfigurationError, match="buffer_depth"):
            spec.scenario()

    def test_params_dict_equivalence(self):
        """Scenario -> SimSpec -> flat params == hand-built SimSpec params."""
        s = Scenario(order=4, message_length=16, total_vcs=5, quality="quick", seed=2)
        direct = SimSpec(
            topology="star",
            order=4,
            algorithm="enhanced_nbc",
            config=SimulationConfig(
                message_length=16,
                generation_rate=0.005,
                total_vcs=5,
                seed=2,
                **quality_windows("quick"),
            ),
        )
        assert s.sim_spec(0.005).to_params() == direct.to_params()


class TestUnits:
    def test_model_unit_params(self):
        unit = Scenario().model_unit(0.004)
        assert unit.kind == "model"
        assert unit.params == {"rate": 0.004}

    def test_sim_unit_params_include_topology_keys(self):
        unit = Scenario(order=4).sim_unit(0.004)
        assert unit.kind == "sim"
        assert unit.params["topology"] == "star"
        assert unit.params["order"] == 4
        assert unit.params["generation_rate"] == 0.004

    def test_replicated_sim_unit_pins_engine(self):
        unit = Scenario(order=4).sim_unit(0.004, replications=4)
        assert unit.kind == "sim"
        assert unit.params["replications"] == 4
        assert unit.params["engine"] == "array"
        single = Scenario(order=4, engine="object").sim_unit(0.004)
        assert "replications" not in single.params
        assert single.params["engine"] == "object"

    def test_vc_split_kind_passthrough(self):
        unit = Scenario(num_adaptive=2, num_escape=4).model_unit(
            0.004, kind="vc_split_point"
        )
        assert unit.kind == "vc_split_point"
        assert unit.params["num_adaptive"] == 2
