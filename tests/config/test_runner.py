"""Tests for the config runner: flag-path parity, comm, hyperopt, serving."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.config import (
    HAVE_YAML,
    build_prediction_server,
    compose_config,
    load_config_file,
    run_experiment,
)
from repro.experiments import (
    HiggsExperimentConfig,
    prepare_higgs_data,
    train_and_evaluate,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
HIGGS_SPARSE_YAML = REPO_ROOT / "examples" / "configs" / "higgs_sparse.yaml"


def _train_via_flags(**kwargs):
    """The historical ``repro train`` path: flag-built config + pipeline."""
    config = HiggsExperimentConfig(**kwargs)
    data = prepare_higgs_data(
        n_events=config.n_events, n_bins=config.n_bins, seed=config.seed
    )
    return train_and_evaluate(config, data=data)


class TestFlagParity:
    """The acceptance criterion: config path == flag path, bitwise."""

    @pytest.mark.skipif(not HAVE_YAML, reason="PyYAML not installed")
    def test_higgs_sparse_yaml_matches_equivalent_flags(self):
        cfg = compose_config(
            load_config_file(HIGGS_SPARSE_YAML), source=str(HIGGS_SPARSE_YAML)
        )
        via_config = run_experiment(cfg)
        via_flags = _train_via_flags(
            n_events=2000,
            density=0.3,
            hidden_epochs=2,
            classifier_epochs=3,
            seed=0,
        )
        for layer_c, layer_f in zip(
            via_config["network"].hidden_layers, via_flags["network"].hidden_layers
        ):
            assert np.array_equal(layer_c.weights, layer_f.weights)
            assert np.array_equal(layer_c.plasticity.mask, layer_f.plasticity.mask)
        data = prepare_higgs_data(n_events=2000, n_bins=10, seed=0)
        assert np.array_equal(
            via_config["network"].predict(data.x_test),
            via_flags["network"].predict(data.x_test),
        )
        assert np.array_equal(
            via_config["network"].predict_proba(data.x_test),
            via_flags["network"].predict_proba(data.x_test),
        )
        assert via_config["accuracy"] == via_flags["accuracy"]
        assert via_config["auc"] == via_flags["auc"]

    def test_config_dict_equivalent_without_yaml(self):
        # The same parity through a plain dict — exercised on every CI job,
        # with or without the yaml extra.
        cfg = compose_config(
            {
                "dataset": {"n_events": 1200},
                "model": {"density": 0.4, "n_minicolumns": 20},
                "training": {"hidden_epochs": 1, "classifier_epochs": 2},
            }
        )
        via_config = run_experiment(cfg)
        via_flags = _train_via_flags(
            n_events=1200,
            density=0.4,
            n_minicolumns=20,
            hidden_epochs=1,
            classifier_epochs=2,
            seed=0,
        )
        assert np.array_equal(
            via_config["network"].hidden_layers[0].weights,
            via_flags["network"].hidden_layers[0].weights,
        )
        data = prepare_higgs_data(n_events=1200, n_bins=10, seed=0)
        assert np.array_equal(
            via_config["network"].predict(data.x_test),
            via_flags["network"].predict(data.x_test),
        )

    def test_comm_config_matches_comm_flags(self):
        # training.comm/ranks in the config == --comm/--ranks on the CLI:
        # both resolve through repro.comm.factory.resolve_comm.
        from repro.comm.factory import resolve_comm

        cfg = compose_config(
            {
                "dataset": {"n_events": 1200},
                "model": {"n_minicolumns": 20},
                "training": {
                    "hidden_epochs": 1,
                    "classifier_epochs": 2,
                    "comm": "thread",
                    "ranks": 2,
                },
            }
        )
        via_config = run_experiment(cfg)
        assert via_config["comm"] == {"transport": "thread", "ranks": 2}

        comm = resolve_comm("thread", 2)
        try:
            data = prepare_higgs_data(n_events=1200, n_bins=10, seed=0)
            via_flags = train_and_evaluate(
                HiggsExperimentConfig(
                    n_events=1200, n_minicolumns=20, hidden_epochs=1, classifier_epochs=2
                ),
                data=data,
                comm=comm,
            )
        finally:
            comm.close()
        assert np.array_equal(
            via_config["network"].hidden_layers[0].weights,
            via_flags["network"].hidden_layers[0].weights,
        )


class TestResolveComm:
    def test_both_none_is_none(self):
        from repro.comm.factory import resolve_comm

        assert resolve_comm(None, None) is None

    def test_ranks_without_transport_is_thread(self):
        from repro.comm.factory import resolve_comm

        comm = resolve_comm(None, 2)
        try:
            assert comm.transport == "thread"
            assert comm.size == 2
        finally:
            comm.close()

    def test_explicit_serial(self):
        from repro.comm.factory import resolve_comm

        comm = resolve_comm("serial", None)
        try:
            assert comm.transport == "serial"
            assert comm.size == 1
        finally:
            comm.close()


class TestRunExperiment:
    def test_result_carries_scenario_and_config(self):
        cfg = compose_config({}, scenario="wide-sparse", quick=True)
        result = run_experiment(cfg)
        assert result["scenario"] == "wide-sparse"
        assert result["config_dict"]["dataset"]["scenario"] == "wide-sparse"
        assert 0.0 <= result["auc"] <= 1.0

    def test_hyperopt_run(self):
        cfg = compose_config(
            {
                "dataset": {"n_events": 1000},
                "model": {"n_minicolumns": 20},
                "training": {"hidden_epochs": 1, "classifier_epochs": 2},
                "hyperopt": {
                    "enabled": True,
                    "trials": 2,
                    "space": {
                        "model.density": {"type": "float", "low": 0.2, "high": 0.6}
                    },
                },
            }
        )
        result = run_experiment(cfg)
        assert result["n_trials"] == 2
        assert 0.0 <= result["best_score"] <= 1.0
        assert "model.density" in result["best_params"]
        assert len(result["trials"]) == 2

    def test_hyperopt_journal_resume_runs_only_the_new_trials(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        base = {
            "dataset": {"n_events": 800},
            "model": {"n_minicolumns": 10},
            "training": {"hidden_epochs": 1, "classifier_epochs": 1},
            "hyperopt": {
                "enabled": True,
                "trials": 2,
                "journal": str(journal),
                "resume": True,
                "space": {"model.density": {"type": "float", "low": 0.2, "high": 0.6}},
            },
        }
        first = run_experiment(compose_config(base))
        assert len(journal.read_text().splitlines()) == 2
        base["hyperopt"]["trials"] = 3
        again = run_experiment(compose_config(base))
        assert len(journal.read_text().splitlines()) == 3
        assert again["trials"][:2] == first["trials"][:2]

    def test_hyperopt_summary_line(self, tmp_path, capsys):
        from repro.cli import main_run

        config = tmp_path / "sweep.json"
        config.write_text(
            json.dumps(
                {
                    "dataset": {"n_events": 800},
                    "training": {"hidden_epochs": 1, "classifier_epochs": 1},
                    "hyperopt": {
                        "enabled": True,
                        "algorithm": "halton",
                        "trials": 2,
                        "space": {"model.density": {"type": "float", "low": 0.2, "high": 0.6}},
                    },
                }
            )
        )
        assert main_run([str(config), "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "hyperopt(halton): best auc=" in out
        assert "over 2 trials" in out and "model.density" in out

    def test_a_failed_training_closes_the_communicator_it_opened(self, monkeypatch):
        from repro.comm import factory
        from repro.experiments import higgs_pipeline

        closed = []
        resolve = factory.resolve_comm

        def resolve_and_watch(*args):
            comm = resolve(*args)
            close = comm.close
            comm.close = lambda: (closed.append(comm.size), close())
            return comm

        def fail(*args, **kwargs):
            raise RuntimeError("training failed")

        monkeypatch.setattr(factory, "resolve_comm", resolve_and_watch)
        monkeypatch.setattr(higgs_pipeline, "train_and_evaluate", fail)
        cfg = compose_config({"training": {"comm": "thread:2"}}, quick=True)
        with pytest.raises(RuntimeError, match="training failed"):
            run_experiment(cfg)
        assert closed == [2]

    def test_evolution_searches_the_head_choice(self):
        cfg = compose_config(
            {
                "dataset": {"n_events": 800},
                "model": {"n_minicolumns": 10},
                "training": {"hidden_epochs": 1, "classifier_epochs": 1},
                "hyperopt": {
                    "enabled": True,
                    "algorithm": "evolution",
                    "trials": 6,
                    "space": {
                        "model.head": {"type": "categorical", "choices": ["sgd", "bcpnn"]},
                        "model.density": {"type": "float", "low": 0.2, "high": 0.6},
                    },
                },
            }
        )
        result = run_experiment(cfg)
        assert result["algorithm"] == "evolution" and result["n_trials"] == 6
        heads = [trial["config"]["model.head"] for trial in result["trials"]]
        assert set(heads) <= {"sgd", "bcpnn"}
        assert result["best_params"]["model.head"] in heads

    def test_hyperopt_json_report_lists_every_trial(self, tmp_path):
        from repro.cli import main_run

        config = tmp_path / "sweep.json"
        space = {"model.density": {"type": "float", "low": 0.2, "high": 0.6}}
        config.write_text(
            json.dumps(
                {
                    "dataset": {"n_events": 800},
                    "training": {"hidden_epochs": 1, "classifier_epochs": 1},
                    "hyperopt": {"enabled": True, "trials": 3, "space": space},
                }
            )
        )
        report = tmp_path / "report.json"
        assert main_run([str(config), "--quiet", "--json", str(report)]) == 0
        result = json.loads(report.read_text())
        assert [trial["index"] for trial in result["trials"]] == [0, 1, 2]
        assert result["best_score"] == max(trial["score"] for trial in result["trials"])
        assert "network" not in result

    def test_hyperopt_deterministic_under_seed(self):
        base = {
            "seed": 3,
            "dataset": {"n_events": 1000},
            "model": {"n_minicolumns": 20},
            "training": {"hidden_epochs": 1, "classifier_epochs": 2},
            "hyperopt": {
                "enabled": True,
                "trials": 2,
                "space": {"model.density": {"type": "float", "low": 0.2, "high": 0.6}},
            },
        }
        r1 = run_experiment(compose_config(base))
        r2 = run_experiment(compose_config(base))
        assert r1["best_params"] == r2["best_params"]
        assert r1["best_score"] == r2["best_score"]


class TestBuildPredictionServer:
    def test_settings_map_onto_server(self):
        cfg = compose_config(
            {
                "dataset": {"n_events": 1000},
                "model": {"n_minicolumns": 20},
                "training": {"hidden_epochs": 1, "classifier_epochs": 2},
                "serving": {
                    "enabled": True,
                    "port": 0,
                    "batch_size": 32,
                    "batch_deadline_ms": 2.0,
                    "max_queue_rows": 128,
                    "request_timeout_ms": 250.0,
                },
            }
        )
        result = run_experiment(cfg)
        server = build_prediction_server(result["network"], cfg.serving)
        assert server.port == 0
        assert server.batcher.batch_size == 32
        assert server.batcher.deadline == pytest.approx(0.002)
        assert server.batcher.max_queue_rows == 128
        assert server.batcher.request_timeout == pytest.approx(0.25)

    def test_unset_durations_keep_the_server_defaults(self):
        cfg = compose_config(
            {
                "dataset": {"n_events": 800},
                "model": {"n_minicolumns": 10},
                "training": {"hidden_epochs": 1, "classifier_epochs": 1},
                "serving": {"enabled": True, "port": 0},
            }
        )
        assert cfg.serving.request_timeout_ms is None
        server = build_prediction_server(run_experiment(cfg)["network"], cfg.serving)
        assert server.batcher.request_timeout is None
        assert server.batcher.deadline == pytest.approx(cfg.serving.batch_deadline_ms / 1000.0)
