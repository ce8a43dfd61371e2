"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main_benchmark, main_sweep, main_train

#: Backend names the registry no longer carries.
RETIRED_BACKENDS = ("parallel", "distributed", "openmp", "mpi", "fpga")


class TestTrainCli:
    def test_train_runs_and_writes_json(self, capsys, tmp_path):
        json_path = tmp_path / "result.json"
        code = main_train(
            [
                "--hcus", "1", "--mcus", "15", "--density", "0.4", "--events", "1200",
                "--epochs", "1", "--seed", "0", "--quiet", "--json", str(json_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "accuracy=" in out and "auc=" in out
        report = json.loads(json_path.read_text())
        assert 0.3 <= report["accuracy"] <= 1.0

    def test_train_with_bcpnn_head(self, capsys):
        code = main_train(
            ["--head", "bcpnn", "--mcus", "10", "--events", "1000", "--epochs", "1", "--quiet"]
        )
        assert code == 0
        assert "accuracy=" in capsys.readouterr().out

    def test_unknown_backend_fails(self):
        with pytest.raises(Exception):
            main_train(["--backend", "cuda", "--events", "600", "--quiet"])

    def test_train_with_thread_comm(self, capsys):
        code = main_train(
            ["--mcus", "10", "--events", "1000", "--epochs", "1", "--quiet",
             "--comm", "thread", "--ranks", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "accuracy=" in out and "ranks=2 (thread)" in out


class TestBenchmarkCli:
    def test_benchmark_prints_tables(self, capsys):
        code = main_benchmark(
            ["--batch", "64", "--inputs", "40", "--mcus", "20", "--hcus", "2",
             "--repeats", "2", "--quiet"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Analytical per-batch cost" in out
        assert "numpy" in out and "float32" in out and "float16" in out


class TestSweepCli:
    def test_distributed_sweep_fast_path(self, capsys, monkeypatch, tmp_path):
        # The distributed sweep is the cheapest: patch its default scale usage
        # by pointing REPRO_FULL off and running with the small scale.
        monkeypatch.delenv("REPRO_FULL", raising=False)
        json_path = tmp_path / "sweep.json"
        code = main_sweep(["distributed", "--quiet", "--json", str(json_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "ranks" in out
        assert json_path.exists()

    def test_distributed_sweep_with_comm_flags(self, capsys, tmp_path):
        json_path = tmp_path / "sweep.json"
        code = main_sweep(
            ["distributed", "--quiet", "--comm", "thread", "--ranks", "2",
             "--json", str(json_path)]
        )
        assert code == 0
        report = json.loads(json_path.read_text())
        assert report["all_equivalent"] is True
        assert [row["ranks"] for row in report["rows"]] == [1, 2]
        assert report["rows"][1]["transport"] == "thread"

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main_sweep(["nonexistent-experiment", "--quiet"])


class TestSparseCli:
    def test_train_with_forced_sparse_matches_dense(self, capsys, tmp_path):
        """--sparse on/off train the same model (execution choice only)."""
        results = {}
        for mode in ("on", "off"):
            json_path = tmp_path / f"result-{mode}.json"
            code = main_train(
                [
                    "--hcus", "1", "--mcus", "15", "--density", "0.4",
                    "--events", "1200", "--epochs", "1", "--seed", "0",
                    "--sparse", mode, "--quiet", "--json", str(json_path),
                ]
            )
            assert code == 0
            capsys.readouterr()
            results[mode] = json.loads(json_path.read_text())
        assert results["on"]["accuracy"] == results["off"]["accuracy"]
        assert results["on"]["auc"] == results["off"]["auc"]


class TestRunCli:
    def test_zero_config_scenario_run(self, capsys):
        from repro.cli import main_run

        code = main_run(["--scenario", "wide-sparse", "--quick", "--quiet"])
        assert code == 0
        out = capsys.readouterr().out
        assert "[wide-sparse]" in out and "auc=" in out

    def test_config_file_run_with_json_report(self, capsys, tmp_path):
        import json as _json

        from repro.cli import main_run

        config_path = tmp_path / "exp.json"
        config_path.write_text(
            _json.dumps(
                {
                    "dataset": {"n_events": 1000},
                    "model": {"n_minicolumns": 15},
                    "training": {"hidden_epochs": 1, "classifier_epochs": 2},
                }
            )
        )
        report_path = tmp_path / "report.json"
        code = main_run([str(config_path), "--quiet", "--json", str(report_path)])
        assert code == 0
        assert "[higgs]" in capsys.readouterr().out
        report = _json.loads(report_path.read_text())
        assert report["scenario"] == "higgs"
        assert report["config_dict"]["dataset"]["n_events"] == 1000
        assert "network" not in report

    def test_set_overrides_reach_the_run(self, capsys):
        from repro.cli import main_run

        code = main_run(
            ["--scenario", "higgs", "--quick", "--quiet",
             "--set", "dataset.scenario=label-noise"]
        )
        assert code == 0
        assert "[label-noise]" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "override",
        ["training.comn=thread"]
        # Retired backend names fail at the schema, never at run time.
        + [f"training.backend={name}" for name in RETIRED_BACKENDS],
    )
    def test_config_error_exits_2_with_field_path(self, capsys, override):
        from repro.cli import main_run

        code = main_run(["--quick", "--quiet", "--set", override])
        assert code == 2
        err = capsys.readouterr().err
        assert f"config error: {override.split('=')[0]}" in err

    def test_unknown_scenario_exits_2(self, capsys):
        from repro.cli import main_run

        code = main_run(["--scenario", "bogus", "--quick", "--quiet"])
        assert code == 2
        assert "dataset.scenario" in capsys.readouterr().err

    def test_cross_field_error_exits_2(self, capsys):
        from repro.cli import main_run

        code = main_run(
            ["--quick", "--quiet", "--set", "training.comm=serial", "--set", "training.ranks=3"]
        )
        assert code == 2
        assert "training.ranks" in capsys.readouterr().err

    def test_list_scenarios(self, capsys):
        from repro.cli import main_run

        code = main_run(["--list-scenarios"])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("higgs", "imbalance", "label-noise", "covariate-drift", "wide-sparse"):
            assert name in out

    def test_dispatcher_routes_run(self, capsys):
        from repro.cli import main

        code = main(["run", "--list-scenarios"])
        assert code == 0
        assert "higgs" in capsys.readouterr().out

    def test_comm_config_reported_like_train_flags(self, capsys):
        from repro.cli import main_run

        code = main_run(
            ["--quick", "--quiet",
             "--set", "training.comm=thread", "--set", "training.ranks=2"]
        )
        assert code == 0
        assert "ranks=2 (thread)" in capsys.readouterr().out
