"""Campaign lifecycle telemetry: ``run_campaign(events=...)``."""

from __future__ import annotations

import json

import pytest

from repro.campaign.grid import GridSpec
from repro.campaign.kinds import run_units_fused
from repro.campaign.runner import run_campaign
from repro.obs import EventSink, read_events

_GRID = GridSpec(
    kind="model",
    axes=(("rate", (0.002, 0.004, 0.006)),),
    pinned=(("order", 4), ("message_length", 8)),
)


def _types(events):
    return [e["type"] for e in events]


class TestSerialExecutor:
    def test_lifecycle_events(self, tmp_path):
        path = tmp_path / "events.jsonl"
        run_campaign(_GRID.expand(), events=path)
        events = read_events(path)
        types = _types(events)
        assert types[0] == "campaign_start"
        assert types[-1] == "campaign_end"
        assert types.count("unit_queued") == 3
        assert types.count("unit_started") == 3
        assert types.count("unit_finished") == 3
        start = events[0]
        assert start["units"] == 3 and start["executor"] == "serial"
        finished = [e for e in events if e["type"] == "unit_finished"]
        assert [e["done"] for e in finished] == [1, 2, 3]
        assert all(e["total"] == 3 and e["elapsed_s"] >= 0 for e in finished)
        assert all(e["kind"] == "model" for e in finished)
        end = events[-1]
        assert end["computed"] == 3 and end["resumed"] == 0

    def test_every_line_parses_standalone(self, tmp_path):
        path = tmp_path / "events.jsonl"
        run_campaign(_GRID.expand(), events=path)
        for line in path.read_text().splitlines():
            event = json.loads(line)
            assert "ts" in event and "type" in event

    def test_resume_emits_unit_cached(self, tmp_path):
        store = tmp_path / "store.jsonl"
        run_campaign(_GRID.expand(), store=store)
        path = tmp_path / "events.jsonl"
        result = run_campaign(_GRID.expand(), store=store, resume=True, events=path)
        assert result.skipped == 3
        events = read_events(path)
        assert _types(events).count("unit_cached") == 3
        assert _types(events).count("unit_started") == 0
        assert events[-1]["resumed"] == 3

    def test_no_events_arg_writes_nothing(self, tmp_path):
        run_campaign(_GRID.expand())
        assert list(tmp_path.iterdir()) == []


class TestPoolExecutors:
    def test_process_executor_events(self, tmp_path):
        path = tmp_path / "events.jsonl"
        run_campaign(_GRID.expand(), workers=2, events=path)
        events = read_events(path)
        types = _types(events)
        assert types[0] == "campaign_start" and types[-1] == "campaign_end"
        assert types.count("unit_started") == 3
        assert types.count("unit_finished") == 3
        assert events[0]["executor"] == "processes"
        started = [e for e in events if e["type"] == "unit_started"]
        # Pool occupancy is reported at submission time and bounded by
        # the in-flight window.
        assert all(1 <= e["in_flight"] <= 2 * 4 for e in started)
        assert max(e["in_flight"] for e in started) >= 2

    def test_thread_executor_events(self, tmp_path):
        """Asking for the deleted thread executor fails before any event."""
        path = tmp_path / "events.jsonl"
        with pytest.raises(TypeError, match="executor"):
            run_campaign(_GRID.expand(), workers=2, executor="threads", events=path)
        assert not path.exists()

    def test_caller_owned_sink_stays_open(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventSink(path) as sink:
            run_campaign(_GRID.expand(), events=sink)
            sink.emit("after_campaign")  # sink not closed by the runner
        types = _types(read_events(path))
        assert types[-1] == "after_campaign"
        assert types[-2] == "campaign_end"


class TestHeartbeat:
    def test_heartbeats_carry_progress(self, tmp_path):
        path = tmp_path / "events.jsonl"
        # Interval far below unit runtime: at least one beat fires.
        run_campaign(_GRID.expand() * 4, events=path, heartbeat_s=0.001)
        beats = [e for e in read_events(path) if e["type"] == "heartbeat"]
        if beats:  # model units are fast; tolerate an instant campaign
            assert all(
                set(b) >= {"done", "total", "in_flight"} for b in beats
            )
            assert all(b["total"] == 12 for b in beats)


class TestFusedGroups:
    def test_fused_plan_events(self, tmp_path):
        from repro.api.scenario import Scenario

        scenario = Scenario(
            order=4, message_length=16, quality="smoke", engine="array"
        )
        units = [scenario.sim_unit(0.001), scenario.sim_unit(0.002)]
        path = tmp_path / "events.jsonl"
        with EventSink(path) as sink:
            run_units_fused(units, events=sink)
        events = read_events(path)
        groups = [e for e in events if e["type"] == "fused_group"]
        assert len(groups) == 1
        assert groups[0]["size"] == 2
        assert groups[0]["kinds"] == ["sim"]
        plan = [e for e in events if e["type"] == "fused_plan"][0]
        assert plan["units"] == 2 and plan["groups"] == 1 and plan["unfused"] == 0
