"""Smoke tests of the CLI entry points (model-only paths)."""

import pytest

from repro.experiments.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure1_defaults(self):
        args = build_parser().parse_args(["figure1"])
        assert args.panel == "a"
        assert args.quality == "quick"

    def test_campaign_has_one_sim_kind(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["campaign", "--kind", "sim_batch"])
        assert exc.value.code == 2
        assert "invalid choice: 'sim_batch'" in capsys.readouterr().err


class TestCommands:
    def test_properties(self, capsys):
        assert main(["properties"]) == 0
        out = capsys.readouterr().out
        assert "S5" in out and "Q7" in out

    def test_distance(self, capsys):
        assert main(["distance", "--max-n", "5"]) == 0
        out = capsys.readouterr().out
        assert "S5" in out

    def test_scale_small(self, capsys):
        assert main(["scale", "--max-n", "5"]) == 0
        out = capsys.readouterr().out
        assert "saturation_rate" in out

    def test_figure1_model_only(self, capsys):
        assert main(["figure1", "--panel", "a", "--no-sim"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1(a)" in out
        assert "model latency" in out

    def test_figure1_save(self, tmp_path, capsys):
        assert main(["figure1", "--no-sim", "--save", str(tmp_path)]) == 0
        assert (tmp_path / "figure1a.json").exists()

    def test_ablation_blocking(self, capsys):
        assert main(["ablation", "blocking"]) == 0
        out = capsys.readouterr().out
        assert "exact_latency" in out

    def test_ablation_hypercube_model(self, capsys):
        assert main(["ablation", "hypercube-model"]) == 0
        out = capsys.readouterr().out
        assert "star_latency" in out and "cube_latency" in out

    def test_ablation_rejects_unknown(self):
        with pytest.raises(SystemExit):
            main(["ablation", "nonsense"])

    def test_scale_out_emits_resultset(self, tmp_path, capsys):
        """ISSUE satellite: scale points project onto the ResultRow schema."""
        import math

        from repro.api.results import ResultSet

        out_file = tmp_path / "scale.jsonl"
        assert main(["scale", "--max-n", "4", "--out", str(out_file)]) == 0
        assert "rows:" in capsys.readouterr().out
        rows = ResultSet.load(out_file)
        assert len(rows) == 1
        assert rows[0].provenance == "model"
        assert math.isnan(rows[0].rate)  # no single operating rate
        assert rows[0].meta["kind"] == "scale_point"

    def test_ablation_vcsplit_out_emits_resultset(self, tmp_path, capsys):
        from repro.api.results import ResultSet

        out_file = tmp_path / "vcsplit.jsonl"
        assert main(["ablation", "vcsplit", "--out", str(out_file)]) == 0
        rows = ResultSet.load(out_file)
        assert len(rows) > 1
        assert all("num_escape" in r.meta for r in rows)

    def test_ablation_out_rejected_for_other_studies(self, tmp_path, capsys):
        out_file = tmp_path / "nope.jsonl"
        assert main(["ablation", "blocking", "--out", str(out_file)]) == 2
        assert "vcsplit" in capsys.readouterr().err


class TestCampaignCommand:
    _FLAGS = [
        "campaign",
        "--kind", "model",
        "--axis", "rate=0.002,0.004",
        "--set", "order=4",
        "--set", "message_length=8",
    ]

    def test_inline_grid_runs_and_prints_table(self, capsys):
        assert main(self._FLAGS) == 0
        out = capsys.readouterr().out
        assert "campaign[model]: 2 units, 2 computed" in out
        assert "latency" in out

    def test_store_and_resume_skip_completed_units(self, tmp_path, capsys):
        store = str(tmp_path / "results.jsonl")
        assert main(self._FLAGS + ["--out", store]) == 0
        capsys.readouterr()
        assert main(self._FLAGS + ["--out", store, "--resume", "--no-table"]) == 0
        out = capsys.readouterr().out
        assert "0 computed, 2 resumed from store" in out

    def test_spec_file_grid(self, tmp_path, capsys):
        spec = tmp_path / "grid.toml"
        spec.write_text(
            'kind = "model"\n\n[axes]\nrate = [0.002, 0.004]\n\n'
            "[pinned]\norder = 4\nmessage_length = 8\n"
        )
        assert main(["campaign", "--spec", str(spec), "--no-table"]) == 0
        out = capsys.readouterr().out
        assert "2 units, 2 computed" in out

    def test_spec_file_conflicts_with_inline_flags(self, tmp_path, capsys):
        spec = tmp_path / "grid.json"
        spec.write_text('{"kind": "model"}')
        assert main(["campaign", "--spec", str(spec), "--kind", "model"]) == 2
        assert "cannot be combined" in capsys.readouterr().err

    def test_kind_or_spec_required(self, capsys):
        assert main(["campaign", "--axis", "rate=0.002"]) == 2
        assert "either --spec or --kind" in capsys.readouterr().err

    def test_resume_requires_out(self, capsys):
        assert main(self._FLAGS + ["--resume"]) == 2
        assert "--resume requires --out" in capsys.readouterr().err


class TestSimCommand:
    _FAST = [
        "sim", "--order", "4", "--rate", "0.003", "--message-length", "8",
        "--vcs", "5", "--quality", "smoke",
    ]

    def test_uniform_run(self, capsys):
        assert main(self._FAST) == 0
        out = capsys.readouterr().out
        assert "mean_latency" in out
        assert "workload=uniform" in out

    def test_workload_flag_reaches_engine(self, capsys):
        argv = self._FAST + ["--workload", "hotspot(fraction=0.3)+batch(size=2)"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "workload=hotspot(fraction=0.3)+batch(size=2)" in out

    def test_window_overrides(self, capsys):
        argv = self._FAST + ["--warmup", "100", "--measure", "400", "--drain", "800"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "cycles_run" in out

    def test_hops_table(self, capsys):
        assert main(self._FAST + ["--hops"]) == 0
        out = capsys.readouterr().out
        assert "p_block" in out

    def test_pooled_replications_print_hop_table(self, capsys):
        argv = self._FAST + ["--replications", "2", "--engine", "array", "--hops"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "pooled metric" in out
        assert "pooled per-hop blocking (2 replications):" in out
        assert "p_block" in out

    def test_bad_workload_is_a_clean_error(self, capsys):
        assert main(self._FAST + ["--workload", "tornado"]) == 2
        assert "starnet sim: error" in capsys.readouterr().err

    def test_bad_algorithm_is_a_clean_error(self, capsys):
        """Run-time configuration errors must not escape as tracebacks."""
        assert main(self._FAST + ["--algorithm", "bogus"]) == 2
        assert "starnet sim: error" in capsys.readouterr().err


class TestValidateCommand:
    _FAST = [
        "validate", "--order", "4", "--message-length", "8", "--vcs", "5",
        "--quality", "smoke", "--fractions", "0.3,0.5",
    ]

    def test_explicit_workloads(self, capsys):
        argv = self._FAST + ["--workload", "uniform", "--workload", "hotspot(fraction=0.2)"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "uniform:" in out
        assert "hotspot(fraction=0.2):" in out
        assert "stable points" in out

    def test_tolerance_failure_exits_nonzero(self, capsys):
        argv = self._FAST + ["--workload", "hotspot(fraction=0.2)", "--tolerance", "0.0001"]
        assert main(argv) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_bad_fraction_is_a_clean_error(self, capsys):
        argv = self._FAST + ["--fractions", "0.2,huh"]
        assert main(argv) == 2
        assert "starnet validate: error" in capsys.readouterr().err

    def test_hops_prints_model_comparison_columns(self, capsys):
        """ISSUE satellite: per-hop blocking surfaced via validate --hops."""
        argv = self._FAST + ["--workload", "uniform", "--fractions", "0.4", "--hops"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "per-hop blocking at rate=" in out
        assert "model_p_block" in out

    def test_hops_with_pooled_replications(self, capsys):
        argv = self._FAST + [
            "--workload", "uniform", "--fractions", "0.4",
            "--hops", "--replications", "2", "--engine", "array",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "per-hop blocking at rate=" in out

    def test_tolerance_pass_exits_zero(self, capsys):
        """A workload inside its stated tolerance must not fail the run."""
        argv = self._FAST + ["--workload", "uniform", "--tolerance", "0.9"]
        assert main(argv) == 0
        assert "PASS" in capsys.readouterr().out

    def test_bounds_table_and_resultset_out(self, tmp_path, capsys):
        """ISSUE tentpole: model vs sim vs bound in one table and one file."""
        from repro.api.results import ResultSet

        out_file = tmp_path / "rows.jsonl"
        argv = self._FAST + [
            "--workload", "uniform", "--fractions", "0.15",
            "--bounds", "--out", str(out_file),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "model vs sim vs bound:" in out
        assert "bound_worst" in out
        rows = ResultSet.load(out_file)
        assert {r.provenance for r in rows} == {"model", "sim", "bound"}

    def test_bound_soundness_flag_fails_the_run(self):
        """A finite bound below the simulated mean is flagged as violated."""
        from types import SimpleNamespace

        from repro.api.scenario import Scenario
        from repro.experiments.cli import _bound_check_table
        from repro.validation.compare import OperatingPoint, compare_curves

        scenario = Scenario(order=4, message_length=8, total_vcs=5)
        point = OperatingPoint(
            generation_rate=0.002,
            model_latency=12.0,
            sim_latency=1e9,  # absurd mean: any finite bound sits below it
            model_saturated=False,
            sim_saturated=False,
        )
        record = SimpleNamespace(
            workload="uniform", rates=(0.002,), comparison=compare_curves([point])
        )
        rendered, violated, rows = _bound_check_table(scenario, record, None)
        assert violated
        assert "BOUND<SIM!" in rendered
        assert rows[0].provenance == "bound"

    def test_preset_suite_runs_with_stated_tolerances(self, capsys):
        """--preset s5: three scenarios, each with its own tolerance."""
        argv = ["validate", "--preset", "s5", "--fractions", "0.2",
                "--tolerance", "1e9"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "uniform:" in out
        assert "hotspot(fraction=0.1):" in out
        assert "onoff" in out

    def test_preset_tolerance_violation_exits_nonzero(self, capsys):
        argv = ["validate", "--preset", "s5", "--fractions", "0.2",
                "--tolerance", "1e-9"]
        assert main(argv) == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--order", "4"),
            ("--message-length", "16"),
            ("--vcs", "5"),
            ("--workload", "uniform"),
            ("--seed", "0"),
            ("--engine", "object"),
            ("--quality", "quick"),
            ("--warmup", "100"),
            ("--measure", "400"),
            ("--drain", "800"),
        ],
    )
    def test_preset_rejects_each_scenario_flag(self, flag, value, capsys):
        """Every scenario flag conflicts with --preset, even at its default."""
        assert main(["validate", "--preset", "s5", flag, value]) == 2
        err = capsys.readouterr().err
        assert "--preset fixes the scenario" in err
        assert f"drop {flag}" in err

    def test_preset_rejects_conflicting_scenario_flags(self, capsys):
        argv = ["validate", "--preset", "s5", "--order", "4", "--engine", "object"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "--preset fixes the scenario" in err
        assert "--order" in err and "--engine" in err
