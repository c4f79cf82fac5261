"""Engine-level workload tests: determinism and config plumbing.

ISSUE satellite: engine determinism must hold under *every* workload —
the same seed must produce bit-identical metrics, whatever the spatial
pattern or temporal process.
"""

import dataclasses
import json

import pytest

from repro.simulation import SimSpec, SimulationConfig
from repro.simulation.config import DEFAULT_ENGINE
from repro.utils.exceptions import ConfigurationError

#: One workload per spatial pattern and per temporal process.
ALL_WORKLOADS = [
    "uniform",
    "hotspot(fraction=0.2)",
    "hotspot(fraction=0.2,nodes=2)",
    "permutation(seed=1)",
    "shift(offset=7)",
    "locality(decay=0.4)",
    "uniform+onoff(duty=0.5,burst=4)",
    "uniform+deterministic",
    "uniform+batch(size=3)",
    "hotspot(fraction=0.1)+onoff(duty=0.25,burst=8)",
]


def short_config(**overrides) -> SimulationConfig:
    base = dict(
        message_length=8,
        generation_rate=0.003,
        total_vcs=5,
        warmup_cycles=300,
        measure_cycles=1_200,
        drain_cycles=2_500,
        seed=11,
        engine="object",  # the reference engine; array runs name theirs
    )
    base.update(overrides)
    return SimulationConfig(**base)


def run(config: SimulationConfig):
    return SimSpec(topology="star", order=4, config=config).run()


class TestDeterminismUnderEveryWorkload:
    @pytest.mark.parametrize("workload", ALL_WORKLOADS)
    def test_same_seed_same_metrics(self, workload):
        config = short_config(workload=workload)
        first = run(config)
        second = run(config)
        assert first.as_dict() == second.as_dict()

    @pytest.mark.parametrize("workload", ALL_WORKLOADS)
    def test_same_seed_same_metrics_on_the_default_engine(self, workload):
        config = short_config(workload=workload, engine=DEFAULT_ENGINE)
        assert run(config).as_dict() == run(config).as_dict()

    def test_different_seeds_differ(self):
        a = run(short_config(workload="hotspot(fraction=0.2)", seed=1))
        b = run(short_config(workload="hotspot(fraction=0.2)", seed=2))
        assert a.mean_latency != b.mean_latency


class TestWorkloadPlumbing:
    def test_workload_field_equals_legacy_traffic(self):
        """The legacy traffic name and the spec grammar drive identical runs."""
        legacy = run(short_config(traffic="hotspot"))
        modern = run(short_config(workload="hotspot"))
        assert legacy.as_dict() == modern.as_dict()

    def test_legacy_traffic_accepts_full_grammar(self):
        result = run(short_config(traffic="hotspot(fraction=0.3)"))
        assert result.messages_completed > 0

    def test_conflicting_fields_rejected(self):
        with pytest.raises(ConfigurationError, match="not both"):
            short_config(traffic="hotspot", workload="uniform")

    def test_bad_workload_rejected_eagerly(self):
        with pytest.raises(ConfigurationError):
            short_config(workload="tornado")
        with pytest.raises(ConfigurationError):
            short_config(workload="hotspot(fractoin=0.2)")

    def test_workload_spec_round_trip(self):
        config = short_config(workload="hotspot(fraction=0.2)+batch(size=4)")
        assert config.workload_spec().canonical == "hotspot(fraction=0.2)+batch(size=4)"

    def test_workload_string_canonicalised(self):
        """Equivalent spellings must share campaign content-hash keys."""
        a = SimSpec(order=4, config=short_config(workload="hotspot(nodes=2,fraction=0.2)"))
        b = SimSpec(order=4, config=short_config(workload="hotspot(fraction=0.2,nodes=2)"))
        assert a.config.workload == "hotspot(fraction=0.2,nodes=2)"
        assert a.to_params() == b.to_params()

    def test_sim_spec_params_round_trip(self):
        config = short_config(workload="hotspot(fraction=0.2)")
        spec = SimSpec(topology="star", order=4, config=config)
        params = spec.to_params()
        assert params["workload"] == "hotspot(fraction=0.2)"
        assert SimSpec.from_params(params) == spec
        assert json.dumps(params)  # JSON-safe for campaign stores

    def test_default_params_omit_workload(self):
        """Uniform configs key identically to the seed's campaign units."""
        spec = SimSpec(topology="star", order=4, config=short_config())
        assert "workload" not in spec.to_params()

    def test_trace_workload_via_config(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps([[0, 5], [1, 9], [2, 17]]))
        result = run(short_config(workload=f"trace(path={path})"))
        assert result.messages_completed > 0


class TestWorkloadChangesBehaviour:
    def test_hotspot_hurts_latency(self):
        uniform = run(short_config(generation_rate=0.006))
        hotspot = run(short_config(generation_rate=0.006, workload="hotspot(fraction=0.3)"))
        assert hotspot.mean_latency > uniform.mean_latency

    def test_bursty_hurts_latency(self):
        uniform = run(short_config(generation_rate=0.008))
        bursty = run(
            short_config(generation_rate=0.008, workload="uniform+onoff(duty=0.2,burst=12)")
        )
        assert bursty.mean_latency > uniform.mean_latency

    def test_offered_load_preserved_across_temporals(self):
        """Temporal processes change variability, not the mean rate."""
        for workload in ("uniform", "uniform+deterministic", "uniform+batch(size=3)"):
            result = run(short_config(generation_rate=0.005, workload=workload))
            cycles = result.cycles_run
            per_node = result.messages_generated / (24 * cycles)
            assert per_node == pytest.approx(0.005, rel=0.2), workload


def test_config_is_frozen_and_replaceable():
    config = short_config(workload="hotspot(fraction=0.2)")
    bumped = dataclasses.replace(config, generation_rate=0.004)
    assert bumped.workload == "hotspot(fraction=0.2)"
    assert bumped.generation_rate == 0.004
