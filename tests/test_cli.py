"""Unit tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import _parse_overrides, build_parser, main
from repro.errors import ReproError


class TestParser:
    def test_list_command_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_parses(self):
        args = build_parser().parse_args(
            ["run", "E1", "--seed", "3", "-p", "sizes=[16]", "--markdown"]
        )
        assert args.command == "run"
        assert args.experiment_id == "E1"
        assert args.seed == 3
        assert args.param == ["sizes=[16]"]
        assert args.markdown

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestOverrideParsing:
    def test_json_values(self):
        overrides = _parse_overrides(["sizes=[16, 32]", "trials=3", "factor=1.5"])
        assert overrides == {"sizes": [16, 32], "trials": 3, "factor": 1.5}

    def test_string_fallback(self):
        assert _parse_overrides(["adversary=concentrate"]) == {"adversary": "concentrate"}

    def test_missing_equals_rejected(self):
        with pytest.raises(ReproError):
            _parse_overrides(["oops"])


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out and "E15" in out and "A1" in out

    def test_describe(self, capsys):
        assert main(["describe", "E14"]) == 0
        out = capsys.readouterr().out
        assert "Appendix B" in out
        assert "default params" in out

    def test_describe_unknown_returns_error_code(self, capsys):
        assert main(["describe", "E99"]) == 2
        assert "error" in capsys.readouterr().err

    def test_run_small_experiment(self, capsys, tmp_path):
        json_path = tmp_path / "e14.json"
        csv_path = tmp_path / "e14.csv"
        code = main(
            [
                "run",
                "E14",
                "-p",
                "mc_sizes=[2]",
                "-p",
                "mc_trials=200",
                "--json",
                str(json_path),
                "--csv",
                str(csv_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Appendix B" in out
        assert "note:" in out
        assert json_path.exists() and csv_path.exists()
        payload = json.loads(json_path.read_text())
        assert payload["experiment_id"] == "E14"

    def test_run_markdown_output(self, capsys):
        code = main(["run", "E14", "-p", "mc_sizes=[2]", "-p", "mc_trials=100", "--markdown"])
        assert code == 0
        assert "| n |" in capsys.readouterr().out

    def test_run_bad_parameter(self, capsys):
        assert main(["run", "E1", "-p", "bogus=1"]) == 2
        assert "error" in capsys.readouterr().err

    def test_engine_flag_rejects_unknown_engine(self):
        # no command takes an --engine flag
        for argv in (
            ["run", "E1", "--engine", "sequential"],
            ["report", "--engine", "batched"],
            ["sweep", "run", "smoke", "--store", "s", "--engine", "sequential"],
            ["scenario", "run", "burst_recovery", "--engine", "batched"],
        ):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)


class TestSweepCli:
    def test_parser_parses_sweep_run(self):
        args = build_parser().parse_args(
            ["sweep", "run", "smoke", "--store", "s", "--seed", "3", "--max-points", "2"]
        )
        assert args.command == "sweep" and args.sweep_command == "run"
        assert args.name == "smoke" and args.max_points == 2

    def test_sweep_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep"])

    def test_sweep_list(self, capsys):
        assert main(["sweep", "list"]) == 0
        out = capsys.readouterr().out
        assert "smoke" in out and "a2_d_choices" in out and "e9_adversarial" in out

    def test_sweep_run_status_query(self, capsys, tmp_path):
        store = tmp_path / "store"
        code = main(
            ["sweep", "run", "smoke", "--store", str(store), "--seed", "3", "--kernel", "numpy"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "4 point(s) run" in out
        assert (store / "sweep.json").exists()
        assert (store / "manifest.jsonl").exists()
        assert len(list((store / "shards").glob("*.npz"))) == 4

        assert main(["sweep", "status", "--store", str(store)]) == 0
        assert "4/4" in capsys.readouterr().out

        assert main(["sweep", "query", "--store", str(store), "-w", "process=rbb"]) == 0
        out = capsys.readouterr().out
        assert "window_max_load_mean" in out and "rbb" in out

    def test_sweep_run_with_observed_metrics(self, capsys, tmp_path):
        store = tmp_path / "store"
        code = main(
            [
                "sweep", "run", "smoke",
                "--store", str(store),
                "--seed", "3",
                "--kernel", "numpy",
                "--metrics", "max_load,legitimacy",
                "--observe-every", "4",
            ]
        )
        assert code == 0
        capsys.readouterr()
        code = main(
            [
                "sweep", "query",
                "--store", str(store),
                "--columns", "index", "max_load_window_max_mean",
                "legitimacy_violations_mean",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "max_load_window_max_mean" in out
        # the observation selection is pinned in the header: resume needs no flags
        from repro.store import ResultStore

        header = ResultStore.open(store).read_header()
        assert header["spec"]["base"]["metrics"] == "max_load,legitimacy"
        assert header["spec"]["base"]["observe_every"] == 4

    def test_sweep_run_rejects_unknown_metric(self, capsys, tmp_path):
        code = main(
            [
                "sweep", "run", "smoke",
                "--store", str(tmp_path / "store"),
                "--metrics", "max_loda",
            ]
        )
        assert code == 2
        assert "unknown metric" in capsys.readouterr().err

    def test_sweep_run_refuses_existing_store(self, capsys, tmp_path):
        store = tmp_path / "store"
        assert main(["sweep", "run", "smoke", "--store", str(store), "--kernel", "numpy"]) == 0
        capsys.readouterr()
        assert main(["sweep", "run", "smoke", "--store", str(store)]) == 2
        assert "sweep resume" in capsys.readouterr().err

    def test_sweep_run_refuses_headerless_manifest_dir(self, capsys, tmp_path):
        store = tmp_path / "store"
        store.mkdir()
        (store / "manifest.jsonl").write_text("{}\n")
        assert main(["sweep", "run", "smoke", "--store", str(store)]) == 2
        assert "damaged" in capsys.readouterr().err

    def test_sweep_kill_and_resume_matches_full_run(self, capsys, tmp_path):
        full, killed = tmp_path / "full", tmp_path / "killed"
        common = ["--seed", "7", "--kernel", "numpy"]
        assert main(["sweep", "run", "smoke", "--store", str(full)] + common) == 0
        assert (
            main(
                ["sweep", "run", "smoke", "--store", str(killed), "--max-points", "2"]
                + common
            )
            == 0
        )
        assert main(["sweep", "resume", "--store", str(killed)]) == 0
        capsys.readouterr()
        assert (full / "manifest.jsonl").read_bytes() == (
            killed / "manifest.jsonl"
        ).read_bytes()

    def test_sweep_run_from_spec_file(self, capsys, tmp_path):
        import json as json_module

        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(
            json_module.dumps(
                {
                    "name": "custom",
                    "base": {"n_replicas": 2, "rounds": 2},
                    "grid": {"n_bins": [8, 16]},
                }
            )
        )
        store = tmp_path / "store"
        code = main(
            [
                "sweep", "run",
                "--spec-file", str(spec_path),
                "--store", str(store),
                "--kernel", "numpy",
            ]
        )
        assert code == 0
        assert "2 point(s) run" in capsys.readouterr().out

    def test_sweep_run_requires_exactly_one_source(self, capsys, tmp_path):
        assert main(["sweep", "run", "--store", str(tmp_path / "s")]) == 2
        assert "exactly one" in capsys.readouterr().err
        assert (
            main(
                [
                    "sweep", "run", "smoke",
                    "--spec-file", "x.json",
                    "--store", str(tmp_path / "s"),
                ]
            )
            == 2
        )

    def test_sweep_query_empty_result(self, capsys, tmp_path):
        store = tmp_path / "store"
        assert main(["sweep", "run", "smoke", "--store", str(store), "--kernel", "numpy"]) == 0
        capsys.readouterr()
        assert main(["sweep", "query", "--store", str(store), "-w", "n=999"]) == 0
        assert "no matching points" in capsys.readouterr().out

    def test_sweep_query_csv_export(self, capsys, tmp_path):
        store = tmp_path / "store"
        assert main(["sweep", "run", "smoke", "--store", str(store), "--kernel", "numpy"]) == 0
        csv_path = tmp_path / "out.csv"
        assert main(["sweep", "query", "--store", str(store), "--csv", str(csv_path)]) == 0
        assert csv_path.exists()
        header = csv_path.read_text().splitlines()[0]
        assert "point_id" in header and "window_max_load_mean" in header


class TestVerifyCommand:
    def test_parser_parses_verify(self):
        parser = build_parser()
        args = parser.parse_args(["verify", "--level", "full", "--only", "token"])
        assert args.command == "verify"
        assert args.level == "full"
        assert args.only == "token"

    def test_verify_rejects_unknown_level(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["verify", "--level", "bogus"])

    def test_verify_list(self, capsys):
        assert main(["verify", "--list"]) == 0
        out = capsys.readouterr().out
        assert "rbb-batched-numpy" in out
        assert "exact_rbb_transition_matrix" in out

    def test_verify_single_case_runs_and_passes(self, capsys):
        code = main(["verify", "--only", "token-fifo", "--no-artifacts", "--seed", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verify smoke: PASS" in out
        assert "token-fifo" in out

    def test_verify_replay_missing_artifact_errors(self, capsys):
        assert main(["verify", "--replay", "/nonexistent/artifact.json"]) == 2
        assert "error:" in capsys.readouterr().err
