"""Tests for the ``repro predict`` CLI subcommand (streaming inference)."""

import json

import numpy as np
import pytest

from repro.cli import main, main_predict
from repro.core import save_network
from repro.datasets.csvio import read_numeric_csv, write_numeric_csv
from repro.exceptions import DataError


@pytest.fixture()
def saved_model(tmp_path, trained_network):
    return str(save_network(trained_network, tmp_path / "model.npz"))


def test_predict_from_csv(tmp_path, saved_model, trained_network, encoded_higgs):
    x = encoded_higgs["x_test"]
    features = tmp_path / "features.csv"
    write_numeric_csv(features, x)
    output = tmp_path / "predictions.csv"
    code = main_predict(
        [str(features), "--model", saved_model, "--output", str(output), "--quiet",
         "--batch-size", "100"]
    )
    assert code == 0
    predictions = read_numeric_csv(output, skip_header=True)[:, 0].astype(np.int64)
    assert np.array_equal(predictions, trained_network.predict(x))


def test_predict_from_npz_with_proba_and_json(
    tmp_path, saved_model, trained_network, encoded_higgs
):
    x = encoded_higgs["x_test"]
    features = tmp_path / "features.npz"
    np.savez(features, x=x)
    output = tmp_path / "predictions.csv"
    report = tmp_path / "report.json"
    code = main(
        ["predict", str(features), "--model", saved_model, "--output", str(output),
         "--proba", "--backend", "float32", "--quiet", "--json", str(report)]
    )
    assert code == 0
    matrix = read_numeric_csv(output, skip_header=True)
    assert matrix.shape == (x.shape[0], 1 + 2)  # prediction + per-class probabilities
    # The CSV writer uses %.6g, so the round-trip resolution bounds the check.
    np.testing.assert_allclose(
        matrix[:, 1:], trained_network.predict_proba(x), atol=1e-5
    )
    assert np.array_equal(np.argmax(matrix[:, 1:], axis=1), matrix[:, 0].astype(np.int64))
    payload = json.loads(report.read_text())
    assert payload["n_rows"] == x.shape[0]
    assert payload["backend"] == "lowprec-float32"
    assert payload["rows_per_second"] > 0


def test_predict_from_npy(tmp_path, saved_model, trained_network, encoded_higgs):
    x = encoded_higgs["x_test"][:64]
    features = tmp_path / "features.npy"
    np.save(features, x)
    code = main_predict([str(features), "--model", saved_model, "--quiet"])
    assert code == 0


def test_predict_comm_process_round_trip(tmp_path, saved_model, trained_network, encoded_higgs):
    """Acceptance: ``repro predict --comm process:2`` through the CLI.

    The spec spins up a 2-rank loopback tcp communicator (one OS-process
    worker), scatters the rows, and the recombined predictions must match
    the in-process reference.
    """
    x = encoded_higgs["x_test"][:200]
    features = tmp_path / "features.npy"
    np.save(features, x)
    output = tmp_path / "predictions.csv"
    report = tmp_path / "report.json"
    code = main(
        ["predict", str(features), "--model", saved_model, "--output", str(output),
         "--comm", "process:2", "--quiet", "--json", str(report)]
    )
    assert code == 0
    predictions = read_numeric_csv(output, skip_header=True)[:, 0].astype(np.int64)
    assert np.array_equal(predictions, trained_network.predict(x))
    payload = json.loads(report.read_text())
    assert payload["comm"] == {"transport": "tcp", "ranks": 2}


def test_predict_comm_thread_round_trip(tmp_path, saved_model, trained_network, encoded_higgs):
    x = encoded_higgs["x_test"][:150]
    features = tmp_path / "features.npy"
    np.save(features, x)
    output = tmp_path / "predictions.csv"
    code = main_predict(
        [str(features), "--model", saved_model, "--output", str(output), "--ranks", "3", "--quiet"]
    )
    assert code == 0
    predictions = read_numeric_csv(output, skip_header=True)[:, 0].astype(np.int64)
    assert np.array_equal(predictions, trained_network.predict(x))


def test_missing_input_rejected(tmp_path, saved_model):
    with pytest.raises(DataError):
        main_predict([str(tmp_path / "nope.csv"), "--model", saved_model, "--quiet"])


def test_ambiguous_npz_rejected(tmp_path, saved_model, encoded_higgs):
    features = tmp_path / "features.npz"
    np.savez(features, a=encoded_higgs["x_test"], b=encoded_higgs["x_test"])
    with pytest.raises(DataError):
        main_predict([str(features), "--model", saved_model, "--quiet"])


def test_unknown_command():
    assert main(["frobnicate"]) == 2


def test_predict_sparse_flag_round_trip(tmp_path, saved_model, trained_network, encoded_higgs):
    """`--sparse on` and `--sparse off` serve identical hard predictions."""
    x = encoded_higgs["x_test"][:128]
    features = tmp_path / "features.npz"
    np.savez(features, x=x)
    outputs = {}
    for mode in ("on", "off"):
        output = tmp_path / f"predictions-{mode}.csv"
        code = main_predict(
            [str(features), "--model", saved_model, "--output", str(output),
             "--sparse", mode, "--quiet"]
        )
        assert code == 0
        outputs[mode] = read_numeric_csv(output, skip_header=True)[:, 0]
    assert np.array_equal(outputs["on"], outputs["off"])
    assert np.array_equal(
        outputs["off"].astype(np.int64), trained_network.predict(x)
    )
