"""Tests for the config runner: flag-path parity, comm, hyperopt, serving."""

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
            assert np.array_equal(layer_c.mask, layer_f.mask)
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
