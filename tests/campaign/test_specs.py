"""ModelSpec / SimSpec: plain-dict round trips and faithful rebuilds."""

import pickle

import pytest

from repro.core.model import StarLatencyModel
from repro.core.spec import ModelSpec
from repro.routing import EnhancedNbc
from repro.simulation import SimSpec, SimulationConfig, simulate
from repro.topology import StarGraph
from repro.utils.exceptions import ConfigurationError


class TestModelSpec:
    def test_build_matches_direct_construction(self):
        spec = ModelSpec(order=4, message_length=16, total_vcs=6)
        direct = StarLatencyModel(4, 16, 6)
        assert spec.build().evaluate(0.004) == direct.evaluate(0.004)

    def test_round_trip_through_params(self):
        spec = ModelSpec(order=4, message_length=16, total_vcs=9, variant="paper")
        assert ModelSpec.from_params(spec.to_params()) == spec

    def test_to_params_omits_defaults(self):
        assert ModelSpec().to_params() == {}
        assert ModelSpec(order=4).to_params() == {"order": 4}

    def test_model_spec_method_round_trips(self):
        model = StarLatencyModel(4, 16, 6)
        rebuilt = model.spec().build()
        assert rebuilt.evaluate(0.004) == model.evaluate(0.004)

    def test_default_split_stays_implicit_in_spec(self):
        """spec() must key identically to a hand-written default spec.

        If the minimum-escape split leaked into the params, units built
        via sweep_parallel would content-hash differently from the same
        logical units built by figure1/the CLI, defeating store dedup.
        """
        model = StarLatencyModel(4, 16, 6)
        assert model.spec().to_params() == {"order": 4, "message_length": 16}

    def test_explicit_non_default_split_survives_spec(self):
        from repro.routing.vc_classes import VcConfig

        model = StarLatencyModel(4, 16, 6, vc_config=VcConfig(2, 4))
        params = model.spec().to_params()
        assert params["num_adaptive"] == 2 and params["num_escape"] == 4

    def test_unknown_params_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown ModelSpec"):
            ModelSpec.from_params({"bogus": 1})

    def test_split_must_be_complete(self):
        with pytest.raises(ConfigurationError, match="together"):
            ModelSpec(num_adaptive=2)

    def test_topology_validated(self):
        with pytest.raises(ConfigurationError, match="topology"):
            ModelSpec(topology="torus")

    def test_hypercube_spec_builds(self):
        spec = ModelSpec(topology="hypercube", order=4, message_length=16, total_vcs=6)
        res = spec.build().evaluate(0.01)
        assert res.latency > 0

    def test_spec_is_picklable(self):
        spec = ModelSpec(order=4)
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestSimSpec:
    def test_run_matches_direct_simulate(self, star4):
        cfg = SimulationConfig(
            message_length=8,
            generation_rate=0.004,
            total_vcs=6,
            warmup_cycles=200,
            measure_cycles=1_000,
            drain_cycles=2_000,
            seed=3,
        )
        spec = SimSpec(topology="star", order=4, algorithm="enhanced_nbc", config=cfg)
        direct = simulate(StarGraph(4), EnhancedNbc(), cfg)
        res = spec.run()
        assert res.as_dict() == direct.as_dict()
        assert res.hop_blocking.as_rows() == direct.hop_blocking.as_rows()

    def test_round_trip_through_flat_params(self):
        cfg = SimulationConfig(generation_rate=0.01, seed=5, watchdog_grace=1_000)
        spec = SimSpec(topology="hypercube", order=5, algorithm="nbc", config=cfg)
        params = spec.to_params()
        assert params["topology"] == "hypercube"
        assert params["watchdog_grace"] == 1_000
        assert SimSpec.from_params(params) == spec

    def test_defaults_omitted_from_params(self):
        """Defaults stay out of the flat dict, except ``engine``: every
        sim key names its engine."""
        assert SimSpec().to_params() == {
            "topology": "star",
            "order": 4,
            "algorithm": "enhanced_nbc",
            "engine": "array",
        }

    def test_unknown_params_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown SimSpec"):
            SimSpec.from_params({"bogus": 1})

    def test_unknown_topology_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown topology"):
            SimSpec(topology="mesh").build()

    def test_spec_is_picklable(self):
        spec = SimSpec(config=SimulationConfig(generation_rate=0.01))
        assert pickle.loads(pickle.dumps(spec)) == spec
