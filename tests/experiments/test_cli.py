"""Tests for the command-line interface."""

import json
import re

import pytest

from repro import cli
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
             "--comm", "thread:2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "accuracy=" in out and "ranks=2 (thread)" in out

    def test_zero_epochs_trains_no_hidden_epoch(self, monkeypatch):
        # `--epochs 0` is a value, not "unset": the hidden phase must not run.
        from repro.core import Network

        histories = []
        fit = Network.fit

        def recording_fit(self, *args, **kwargs):
            histories.append(fit(self, *args, **kwargs))
            return histories[-1]

        monkeypatch.delenv("REPRO_FULL", raising=False)
        monkeypatch.setattr(Network, "fit", recording_fit)
        code = main_train(["--mcus", "10", "--events", "600", "--epochs", "0", "--quiet"])
        assert code == 0
        [history] = histories
        assert [r for r in history.records if r.phase == "hidden"] == []

    def test_bad_value_exits_2_naming_the_schema_field(self, capsys):
        code = cli.main(["train", "--density", "1.5", "--events", "600", "--quiet"])
        assert code == 2
        assert "model.density" in capsys.readouterr().err


#: A legal value per ``repro train`` settings flag (None: a switch), plus the
#: flags a cross-field check needs beside it.
TRAIN_FLAG_VALUES = {
    "--hcus": ("2", ()),
    "--mcus": ("20", ()),
    "--density": ("0.5", ()),
    "--head": ("bcpnn", ()),
    "--events": ("1000", ()),
    "--higgs-path": ("/data/HIGGS.csv.gz", ()),
    "--seed": ("3", ()),
    "--epochs": ("0", ()),
    "--backend": ("float32", ()),
    "--comm": ("thread:2", ()),
    "--pipeline": (None, ()),
    "--weight-refresh-tol": ("0.02", ()),
    "--fault-tolerance": (None, ("--comm", "process:2")),
    "--checkpoint-dir": ("ckpt", ()),
    "--checkpoint-every": ("2", ()),
    "--checkpoint-keep": ("5", ()),
    "--resume": (None, ("--checkpoint-dir", "ckpt")),
}


class TestTrainIsASpellingOfTheSchema:
    """``repro train --FLAG V`` composes what ``repro run --set PATH=V`` does."""

    def test_every_flag_has_a_case(self):
        assert set(TRAIN_FLAG_VALUES) == {flag for flag, _, _ in cli.TRAIN_FLAGS}
        assert len(cli.TRAIN_FLAGS) == 17

    @pytest.mark.parametrize("flag", sorted(TRAIN_FLAG_VALUES))
    def test_flag_composes_like_set(self, monkeypatch, flag):
        from repro.config import compose_config, parse_set_overrides

        monkeypatch.delenv("REPRO_FULL", raising=False)
        paths = {f: path for f, path, _ in cli.TRAIN_FLAGS}
        value, extra = TRAIN_FLAG_VALUES[flag]
        given = [(flag, value), *zip(extra[::2], extra[1::2])]
        argv = [part for f, v in given for part in ([f] if v is None else [f, v])]
        via_flags = cli._train_config(cli._train_parser().parse_args(argv))
        pairs = [f"{paths[f]}={'true' if v is None else v}" for f, v in given]
        via_set = compose_config(overrides=parse_set_overrides(pairs))
        assert via_flags.to_dict() == via_set.to_dict()
        assert via_flags.to_dict() != compose_config().to_dict()

    def test_small_scale_sizes_are_the_schema_defaults(self):
        from repro.config import DatasetSection, TrainingSection
        from repro.experiments import get_scale

        small = get_scale("small")
        assert small.n_events == DatasetSection().n_events
        assert small.hidden_epochs == TrainingSection().hidden_epochs
        assert small.classifier_epochs == TrainingSection().classifier_epochs
        assert small.batch_size == TrainingSection().batch_size

    def test_full_scale_sizes_sit_beneath_the_flags(self):
        args = cli._train_parser().parse_args(["--scale", "full", "--epochs", "2"])
        training = cli._train_config(args).training
        assert cli._train_config(args).dataset.n_events == 200000
        assert (training.hidden_epochs, training.classifier_epochs) == (2, 20)
        assert training.batch_size == 256


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
            ["distributed", "--quiet", "--comm", "thread:2", "--json", str(json_path)]
        )
        assert code == 0
        report = json.loads(json_path.read_text())
        assert report["all_equivalent"] is True
        assert [row["ranks"] for row in report["rows"]] == [1, 2]
        assert report["rows"][1]["transport"] == "thread"

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main_sweep(["nonexistent-experiment", "--quiet"])


#: Every subcommand with the minimal positional/required arguments.
SUBCOMMANDS = {
    "train": (cli.main_train, []),
    "sweep": (cli.main_sweep, ["capacity"]),
    "benchmark": (cli.main_benchmark, []),
    "predict": (cli.main_predict, ["rows.csv", "--model", "model.npz"]),
    "serve": (cli.main_serve, ["--model", "model.npz"]),
}


class TestSparseFlagRetired:
    """The mask density picks the kernel; no subcommand takes ``--sparse``."""

    @pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
    def test_sparse_flag_is_an_argparse_error(self, capsys, name):
        main, required = SUBCOMMANDS[name]
        with pytest.raises(SystemExit) as exc:
            main(required + ["--sparse", "on"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --sparse on" in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
    def test_help_lists_no_sparse_flag(self, capsys, name):
        main, _ = SUBCOMMANDS[name]
        with pytest.raises(SystemExit):
            main(["--help"])
        assert re.search(r"--sparse(?!-payload)", capsys.readouterr().out) is None


#: Flags deleted from every subcommand that had them: the rank count lives in
#: ``--comm``, and weight_refresh_tol / the frozen mask decide the comm modes.
REMOVED_FLAGS = [
    (name, flag)
    for name in ("train", "sweep", "benchmark")
    for flag in ("--comm-overlap", "--sparse-payload", "--ranks")
] + [("predict", "--ranks")]


@pytest.mark.parametrize("name, flag", REMOVED_FLAGS)
def test_removed_flag_is_an_argparse_error(capsys, name, flag):
    main, required = SUBCOMMANDS[name]
    with pytest.raises(SystemExit) as exc:
        main(required + [flag, "2"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err


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
        [
            "training.comn=thread",
            "training.sparse=on",
            "training.comm_overlap=on",
            "training.sparse_payload=on",
        ]
        # Retired backend names fail at the schema, never at run time.
        + [f"training.backend={name}" for name in RETIRED_BACKENDS],
    )
    def test_config_error_exits_2_with_field_path(self, capsys, override):
        from repro.cli import main_run

        code = main_run(["--quick", "--quiet", "--set", override])
        assert code == 2
        err = capsys.readouterr().err
        assert f"config error: {override.split('=')[0]}" in err
        # Removed keys (no alias) and retired backends are unknown names.
        assert ("unknown backend" if "backend" in override else "unknown key") in err

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
