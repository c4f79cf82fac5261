"""Tests of the benchmark harness itself: names, tiny runs, checks, tracing.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import pytest

from perfbench import run
from perfbench.layers import LAYER_METRICS, LayerProbe
from perfbench.tracer import Span, Tracer, covered_ns, self_ns
from perfbench.workloads import WORKLOADS

BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())

#: Smoke windows small enough for an S5 object-engine panel in seconds.
_TINY_SMOKE = dict(warmup_cycles=100, measure_cycles=300, drain_cycles=400)


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_metric_names_match_benchmark_json():
    assert run.END_TO_END == _units("end_to_end")
    assert LAYER_METRICS == _units("per_layer")
    # figure1-a runs by name but is left out of the ledger (README.md).
    assert sorted(WORKLOADS) == sorted(
        [w["name"] for w in BENCHMARK["workloads"]] + ["figure1-a"]
    )


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """One tiny untraced run of every workload, plus one traced run's metrics."""
    from repro.api import quality

    saved = dict(quality.QUALITY_WINDOWS["smoke"])
    quality.QUALITY_WINDOWS["smoke"].update(_TINY_SMOKE)
    out = {}
    try:
        for name, workload in WORKLOADS.items():
            workdir = tmp_path_factory.mktemp(name)
            ctx = workload.setup(3, workload.tiny, workdir)
            outcome = workload.run(ctx, 3, workload.tiny)
            probe = LayerProbe()
            probe.install()
            try:
                probe.tracer.enabled = True
                traced = workload.run(ctx, 3, workload.tiny)
            finally:
                probe.uninstall()
            layers = probe.metrics((0, 0), [traced])
            out[name] = (workload, outcome, traced, layers)
    finally:
        quality.QUALITY_WINDOWS["smoke"].update(saved)
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_tiny_and_emits_every_metric(tiny_runs, name):
    workload, outcome, traced, layers = tiny_runs[name]
    checks = workload.check(outcome)
    assert checks
    failed = sum(1 for _, ok in checks if not ok)
    metrics = run.end_to_end_metrics([outcome], [0.5], len(checks), failed)
    assert set(metrics) == set(_units("end_to_end"))
    assert set(layers) == set(_units("per_layer"))
    assert all(math.isfinite(v) for v in layers.values())
    for key in ("wall_s", "rep_cycles_per_s", "sim_cycles_per_point", "query_p50_ms",
                "cold_p50_ms", "queries_per_s", "peak_rss_mb"):
        assert metrics[key] > 0, key
    assert 0.0 <= layers["unattributed.share"] <= 1.0
    if workload.repeats_exactly:
        assert run.fingerprint(traced) == run.fingerprint(outcome)


@pytest.mark.parametrize("name", ["kernel-s5", "sweep-s4", "service-mixed"])
def test_tiny_outputs_pass_their_checks(tiny_runs, name):
    workload, outcome, _, _ = tiny_runs[name]
    assert [c for c, ok in workload.check(outcome) if not ok] == []


def _corrupt(name: str, outcome):
    data = dict(outcome.data)
    if name == "figure1-a":
        series = data["series"][0]
        sims = list(series.sim)
        sims[0] = dataclasses.replace(sims[0], mean_latency=math.nan, messages_measured=0)
        data["series"] = [dataclasses.replace(series, sim=tuple(sims)), *data["series"][1:]]
    elif name == "kernel-s5":
        point = dataclasses.replace(outcome.points[0], saturated=True)
        return dataclasses.replace(outcome, points=[point, *outcome.points[1:]])
    elif name == "sweep-s4":
        data["rows"] = [dataclasses.replace(data["rows"][0], latency=math.nan), *data["rows"][1:]]
    else:
        read = next(i for i, entry in enumerate(data["log"]) if entry[0] == "read")
        kind, rate, expected, tier, latency, provenance = data["log"][read]
        data["log"] = list(data["log"])
        data["log"][read] = (kind, rate, expected, tier, latency * 1.5, provenance)
    return dataclasses.replace(outcome, data=data)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_corrupted_output_trips_a_check(tiny_runs, name):
    workload, outcome, _, _ = tiny_runs[name]
    before = sum(1 for _, ok in workload.check(outcome) if not ok)
    after = sum(1 for _, ok in workload.check(_corrupt(name, outcome)) if not ok)
    assert after > before


def test_uninstall_restores_every_binding():
    from repro.campaign import kinds
    from repro.simulation.kernels import ArraySimulator
    from repro.workloads import flows

    run_fn = ArraySimulator.__dict__["run"]
    model_kind = kinds.KINDS["model"]
    cached = flows.cached_flow_profile
    probe = LayerProbe()
    probe.install()
    assert ArraySimulator.__dict__["run"] is not run_fn
    assert kinds.KINDS["model"] is not model_kind
    probe.uninstall()
    assert ArraySimulator.__dict__["run"] is run_fn
    assert kinds.KINDS["model"] is model_kind
    assert flows.cached_flow_profile is cached


def test_tracer_nests_and_computes_self_time():
    tracer = Tracer()

    def inner():
        return 1

    def outer():
        return wrapped_inner() + wrapped_inner()

    wrapped_inner = tracer.wrap(inner, "inner")
    wrapped_outer = tracer.wrap(outer, "outer")
    tracer.enabled = True
    assert wrapped_outer() == 2
    names = sorted(s.name for s in tracer.spans)
    assert names == ["inner", "inner", "outer"]
    top = next(s for s in tracer.spans if s.name == "outer")
    assert all(s.parent == top.id for s in tracer.spans if s.name == "inner")


def test_self_and_covered_time():
    spans = [Span(0, "a", 0, 100, None, "t"), Span(1, "b", 10, 30, 0, "t"),
             Span(2, "c", 20, 50, 0, "t")]
    assert covered_ns([(10, 30), (20, 50)], 0, 100) == 40
    assert self_ns(spans) == {0: 60, 1: 20, 2: 30}
    assert covered_ns([(s.start, s.end) for s in spans], 50, 150) == 50


@pytest.mark.parametrize("env", run.REFUSED_ENV)
def test_refuses_to_run_under_a_different_program(monkeypatch, capsys, env):
    monkeypatch.setenv(env, "1")
    code = run.main(["--workload", "kernel-s5", "--seed", "1", "--seconds", "1"])
    out, err = capsys.readouterr()
    assert code == 2
    assert "REFUSING" in err and out == ""
