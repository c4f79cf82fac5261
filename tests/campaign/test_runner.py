"""Campaign execution: serial/pool runs, resume, dedup, streaming."""

import math

import pytest

from repro.campaign.grid import GridSpec, WorkUnit
from repro.campaign.runner import run_campaign, to_payload
from repro.campaign.store import ResultStore
from repro.core.model import ModelResult, StarLatencyModel
from repro.utils.exceptions import ConfigurationError

#: Small, fast model grid shared by the tests below.
_GRID = GridSpec(
    kind="model",
    axes=(("rate", (0.002, 0.004, 0.006)), ("total_vcs", (6, 9))),
    pinned=(("order", 4), ("message_length", 8)),
)


class TestSerial:
    def test_results_match_direct_evaluation(self):
        result = run_campaign(_GRID.expand())
        assert result.computed == 6 and result.skipped == 0
        direct = StarLatencyModel(4, 8, 6).evaluate(0.002)
        assert result.results[0] == direct

    def test_results_are_in_unit_order(self):
        result = run_campaign(_GRID.expand())
        rates = [r.generation_rate for r in result.results]
        assert rates == [0.002, 0.002, 0.004, 0.004, 0.006, 0.006]

    def test_identical_units_computed_once(self):
        unit = WorkUnit("model", {"order": 4, "message_length": 8, "rate": 0.002})
        result = run_campaign([unit, unit, unit])
        assert result.size == 3
        assert result.results[0] is result.results[1] is result.results[2]

    def test_workers_validated(self):
        with pytest.raises(ConfigurationError, match="workers"):
            run_campaign([], workers=0)

    def test_progress_callback(self):
        seen = []
        run_campaign(_GRID.expand(), progress=lambda done, total: seen.append((done, total)))
        assert seen[-1] == (6, 6)
        assert [d for d, _ in seen] == sorted(d for d, _ in seen)


class TestStoreAndResume:
    def test_streaming_to_store(self, tmp_path):
        path = tmp_path / "results.jsonl"
        result = run_campaign(_GRID.expand(), store=path)
        assert result.store_path == path
        assert len(ResultStore(path).load()) == 6

    def test_resume_skips_everything_without_recompute(self, tmp_path):
        """A completed store satisfies a rerun with zero computed units."""
        path = tmp_path / "results.jsonl"
        run_campaign(_GRID.expand(), store=path)
        store = ResultStore(path)
        rerun = run_campaign(_GRID.expand(), store=store, resume=True)
        assert rerun.computed == 0
        assert rerun.skipped == 6
        assert store.hits == 6
        assert store.appended == 0
        # resumed results are the persisted payloads
        assert rerun.results[0]["latency"] == pytest.approx(
            StarLatencyModel(4, 8, 6).evaluate(0.002).latency, abs=1e-3
        )

    def test_resume_after_interruption_computes_only_the_rest(self, tmp_path):
        """Pre-seed the store with half the grid — the classic kill/resume."""
        path = tmp_path / "results.jsonl"
        units = _GRID.expand()
        run_campaign(units[:3], store=path)  # "killed" after 3 units
        rerun = run_campaign(units, store=path, resume=True)
        assert rerun.skipped == 3
        assert rerun.computed == 3
        assert len(ResultStore(path).load()) == 6

    def test_without_resume_flag_store_is_append_only(self, tmp_path):
        path = tmp_path / "results.jsonl"
        run_campaign(_GRID.expand(), store=path)
        rerun = run_campaign(_GRID.expand(), store=path, resume=False)
        assert rerun.computed == 6  # recomputed (resume not requested)


class TestProcessPool:
    def test_two_worker_smoke(self):
        """Process-pool execution returns the same results as serial."""
        serial = run_campaign(_GRID.expand(), workers=1)
        pooled = run_campaign(_GRID.expand(), workers=2)
        assert pooled.workers == 2
        assert pooled.computed == 6
        for a, b in zip(serial.results, pooled.results):
            assert a == b  # ModelResult is a frozen dataclass: exact equality

    def test_pool_streams_to_store(self, tmp_path):
        path = tmp_path / "results.jsonl"
        result = run_campaign(_GRID.expand(), workers=2, store=path)
        assert result.computed == 6
        assert len(ResultStore(path).load()) == 6


class TestThreadExecutor:
    """Thread lanes are gone: ``workers > 1`` always means processes."""

    def test_thread_pool_matches_serial(self):
        serial = run_campaign(_GRID.expand(), workers=1)
        pooled = run_campaign(_GRID.expand(), workers=3)
        assert pooled.workers == 3
        assert pooled.computed == 6
        for a, b in zip(serial.results, pooled.results):
            assert a == b

    def test_thread_pool_streams_to_store(self, tmp_path):
        path = tmp_path / "results.jsonl"
        with pytest.raises(TypeError, match="executor"):
            run_campaign(_GRID.expand(), workers=2, executor="threads", store=path)
        assert not path.exists()  # refused before the store was opened
        result = run_campaign(_GRID.expand(), workers=3, store=path)
        assert result.computed == 6
        assert len(ResultStore(path).load()) == 6


class TestPayloads:
    def test_model_result_payload(self):
        res = StarLatencyModel(4, 8, 6).evaluate(0.002)
        payload = to_payload(res)
        assert payload["latency"] == round(res.latency, 4)

    def test_saturation_payload_roundtrips_to_json(self):
        result = run_campaign(
            [WorkUnit("saturation", {"order": 4, "message_length": 8})]
        )
        search = result.results[0]
        assert math.isfinite(search.rate)
        payload = to_payload(search)
        assert payload["rate"] == search.rate
        assert tuple(payload["bracket"]) == search.bracket

    def test_plain_dict_payload_passthrough(self):
        assert to_payload({"a": 1}) == {"a": 1}
        assert to_payload([1, 2]) == [1, 2]


class TestSweepParallel:
    def test_matches_sweep(self):
        model = StarLatencyModel(4, 8, 6)
        rates = (0.002, 0.004, 0.006)
        assert model.sweep_parallel(rates) == model.sweep(rates)

    def test_pool_matches_sweep(self):
        model = StarLatencyModel(4, 8, 6)
        rates = (0.002, 0.004)
        parallel = model.sweep_parallel(rates, workers=2)
        assert parallel == model.sweep(rates)
        assert all(isinstance(r, ModelResult) for r in parallel)


class TestJobsKnob:
    """``run_units_fused``: the serial in-process fused runner."""

    def test_fused_jobs_parity(self):
        """Fused and solo units come back in unit order, equal to per-unit runs.

        One fused group holds R = 2 and R = 1 ``sim`` units, so pooled
        and single-run results come out of the same batch.
        """
        from repro.api.convert import row_from_unit
        from repro.campaign.kinds import run_units_fused

        pinned = (
            ("order", 4),
            ("message_length", 16),
            ("total_vcs", 5),
            ("engine", "array"),
            ("seed", 0),
            ("warmup_cycles", 100),
            ("measure_cycles", 400),
            ("drain_cycles", 600),
        )
        grid = GridSpec(
            kind="sim",
            axes=(("generation_rate", (0.001, 0.002, 0.003)),),
            pinned=pinned + (("replications", 2),),
        )
        units = grid.expand()
        units.append(WorkUnit("sim", {**dict(pinned), "generation_rate": 0.004}))
        # Mix in a non-fusible unit so both a fused group and a solo unit run.
        units = units + [
            WorkUnit("model", {"order": 4, "message_length": 8, "rate": 0.002})
        ]
        fused = run_units_fused(units)
        assert [type(r).__name__ for r in fused[3:]] == ["SimulationResult", "ModelResult"]
        per_unit = run_campaign(units).results
        assert [row_from_unit(u, r) for u, r in zip(units, fused)] == [
            row_from_unit(u, r) for u, r in zip(units, per_unit)
        ]

    def test_fused_jobs_progress_reaches_total(self):
        from repro.campaign.kinds import run_units_fused

        units = [
            WorkUnit("model", {"order": 4, "message_length": 8, "rate": r})
            for r in (0.002, 0.004, 0.006)
        ]
        seen = []
        run_units_fused(units, progress=lambda d, t: seen.append((d, t)))
        assert seen[-1] == (3, 3)
