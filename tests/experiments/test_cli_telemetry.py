"""CLI telemetry: sim --profile/--watch/--json, trace export, warmup checks."""

from __future__ import annotations

import json

import pytest

from repro.experiments.cli import main
from repro.obs import EventSink, TraceContext, emit_span


_S4 = [
    "sim",
    "--order",
    "4",
    "--message-length",
    "16",
    "--vcs",
    "5",
    "--load",
    "0.4",
    "--quality",
    "smoke",
]


class TestWatchCommand:
    """``sim --watch``: the probe view, terminal and JSON lines."""

    def test_renders_sparklines_and_warmup_footer(self, capsys):
        assert main(_S4 + ["--replications", "2", "--watch"]) == 0
        out = capsys.readouterr().out
        assert "in_flight" in out and "throughput" in out and "backlog" in out
        assert "▁" in out or "█" in out  # sparkline glyphs rendered
        assert "warmup:" in out
        assert "cycle" in out  # the sample table header
        assert "probes:" in out
        assert "engine=array" in out  # --watch defaults to the array engine

    def test_out_writes_meta_plus_samples_jsonl(self, capsys):
        argv = _S4 + ["--replications", "2", "--watch", "--json"]
        assert main(argv) == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        meta, samples = lines[0], lines[1:]
        assert meta["type"] == "meta"
        assert "warmup_adequacy" in meta
        assert meta["warmup_adequacy"]["series"] == "in_flight"
        assert samples and all(s["type"] == "sample" for s in samples)
        assert all(
            {"cycle", "in_flight", "completed", "throughput", "backlog"} <= set(s)
            for s in samples
        )
        cycles = [s["cycle"] for s in samples]
        assert cycles == sorted(cycles)

    def test_explicit_stride_and_determinism(self, capsys):
        argv = _S4 + ["--watch", "9", "--json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first  # probes are a pure function of the seed
        meta = json.loads(first.splitlines()[0])
        assert meta["interval"] == 9


class TestProfileJson:
    """``sim --profile``: the phase table and its JSON record."""

    def test_json_flag_round_trips(self, capsys):
        assert main(["sim", "--order", "4", "--quality", "smoke", "--profile", "--json"]) == 0
        out = capsys.readouterr().out
        record = json.loads(out)  # exactly one JSON document on stdout
        assert record["type"] == "profile"
        assert record["command"] == "profile"
        assert record["topology"] == "star" and record["order"] == 4
        assert set(record["phases"]) == {
            "generation",
            "activation",
            "route",
            "complete",
            "other",
        }
        assert record["total_ns"] >= sum(record["phases"].values()) > 0
        assert record["cycles"] > 0

    def test_table_mode_is_not_json(self, capsys):
        assert main(["sim", "--order", "4", "--quality", "smoke", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "phase" in out  # human table, not a JSON document

    def test_profile_and_watch_lines_share_one_stream(self, capsys):
        argv = _S4 + ["--profile", "--watch", "--json"]
        assert main(argv) == 0
        types = [json.loads(line)["type"] for line in capsys.readouterr().out.splitlines()]
        assert types[:2] == ["profile", "meta"]
        assert set(types[2:]) == {"sample"}


class TestSimObservationFlags:
    def test_observation_leaves_the_metric_table_unchanged(self, capsys):
        base = _S4 + ["--engine", "array", "--replications", "2", "--seed", "3"]
        assert main(base) == 0
        plain = capsys.readouterr().out
        assert main(base + ["--profile", "--watch"]) == 0
        observed = capsys.readouterr().out
        assert "mean_latency" in plain
        # The observed run prints the identical header and metric tables,
        # then its profile and probe sections.
        assert observed.startswith(plain)
        assert "profile:" in observed[len(plain):]
        assert "probes:" in observed[len(plain):]

    def test_rate_and_load_are_mutually_exclusive(self, capsys):
        argv = ["sim", "--order", "4", "--rate", "0.01", "--load", "0.6", "--profile"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_json_needs_an_observation_flag(self, capsys):
        assert main(["sim", "--order", "4", "--quality", "smoke", "--json"]) == 2
        assert "--json needs --profile or --watch" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--profile"], ["--watch"], ["--watch", "5"]])
    def test_object_engine_is_rejected(self, flag, capsys):
        argv = ["sim", "--order", "4", "--engine", "object", *flag]
        assert main(argv) == 2
        assert "drop --engine object" in capsys.readouterr().err

    def test_zero_stride_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sim", "--order", "4", "--watch", "0"])
        assert exc.value.code == 2
        assert "probe stride must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["profile", "watch"])
    def test_folded_commands_are_gone(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--order", "4"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestTraceExport:
    def _events(self, tmp_path):
        path = tmp_path / "events.jsonl"
        root = TraceContext.root()
        with EventSink(path) as sink:
            emit_span(sink, "service.query", root, 1_000, 9_000, tier="cold")
            emit_span(sink, "refine.unit", root.child(), 2_000, 5_000)
        return path

    def test_export_defaults_next_to_the_events_file(self, tmp_path, capsys):
        events = self._events(tmp_path)
        assert main(["trace", "export", str(events)]) == 0
        out = capsys.readouterr().out
        assert "trace export: 2 spans, 1 trace(s), 1 root span(s)" in out
        doc = json.loads(events.with_name("events.trace.json").read_text())
        assert [e["name"] for e in doc["traceEvents"]] == [
            "service.query",
            "refine.unit",
        ]

    def test_export_to_explicit_out(self, tmp_path):
        events = self._events(tmp_path)
        out = tmp_path / "my.trace.json"
        assert main(["trace", "export", str(events), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["displayTimeUnit"] == "ms"

    def test_missing_file_is_a_clean_error(self, tmp_path, capsys):
        assert main(["trace", "export", str(tmp_path / "nope.jsonl")]) == 2
        assert "no event file" in capsys.readouterr().err


class TestValidateWarmupCheck:
    _BASE = [
        "validate",
        "--workload",
        "uniform",
        "--fractions",
        "0.4",
        "--engine",
        "array",
        "--order",
        "4",
        "--vcs",
        "5",
        "--quality",
        "smoke",
        "--replications",
        "2",
    ]

    def test_default_window_is_silent(self, capsys):
        assert main(self._BASE) == 0
        assert "warmup check: WARNING" not in capsys.readouterr().out

    def test_short_warmup_warns_without_failing(self, capsys):
        assert main(self._BASE + ["--warmup", "50"]) == 0
        out = capsys.readouterr().out
        assert "warmup check: WARNING" in out
        assert "warmup_cycles=50" in out
        assert "consider warmup >=" in out

    def test_no_warmup_check_suppresses_the_warning(self, capsys):
        assert main(self._BASE + ["--warmup", "50", "--no-warmup-check"]) == 0
        assert "warmup check" not in capsys.readouterr().out
