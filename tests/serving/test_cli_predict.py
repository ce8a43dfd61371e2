"""Tests for the ``repro predict`` CLI subcommand (streaming inference)."""

import gc
import json
import warnings
import zipfile

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


def test_predict_from_gzipped_csv(tmp_path, saved_model, trained_network, encoded_higgs):
    x = encoded_higgs["x_test"][:200]
    features = write_numeric_csv(tmp_path / "features.csv.gz", x)
    output = tmp_path / "predictions.csv"
    code = main_predict([str(features), "--model", saved_model, "--output", str(output), "--quiet"])
    assert code == 0
    predictions = read_numeric_csv(output, skip_header=True)[:, 0].astype(np.int64)
    assert np.array_equal(predictions, trained_network.predict(x))


def test_a_single_array_archive_is_read_under_any_key(
    tmp_path, saved_model, trained_network, encoded_higgs
):
    x = encoded_higgs["x_test"][:64]
    features = tmp_path / "features.npz"
    np.savez(features, rows=x)
    output = tmp_path / "predictions.csv"
    code = main_predict([str(features), "--model", saved_model, "--output", str(output), "--quiet"])
    assert code == 0
    predictions = read_numeric_csv(output, skip_header=True)[:, 0].astype(np.int64)
    assert np.array_equal(predictions, trained_network.predict(x))


def test_predict_from_npy(tmp_path, saved_model, trained_network, encoded_higgs):
    x = encoded_higgs["x_test"][:64]
    features = tmp_path / "features.npy"
    np.save(features, x)
    code = main_predict([str(features), "--model", saved_model, "--quiet"])
    assert code == 0


def test_missing_input_rejected(tmp_path, saved_model):
    with pytest.raises(DataError):
        main_predict([str(tmp_path / "nope.csv"), "--model", saved_model, "--quiet"])


def test_ambiguous_npz_rejected(tmp_path, saved_model, encoded_higgs):
    features = tmp_path / "features.npz"
    np.savez(features, a=encoded_higgs["x_test"], b=encoded_higgs["x_test"])
    with pytest.raises(DataError):
        main_predict([str(features), "--model", saved_model, "--quiet"])


@pytest.mark.parametrize("suffix", [".npy", ".npz"])
def test_torn_archive_closes_its_descriptor(tmp_path, suffix):
    from repro.cli import _load_feature_matrix

    whole = tmp_path / "whole.npz"
    np.savez(whole, x=np.ones((4, 280)))
    torn = tmp_path / f"features{suffix}"
    torn.write_bytes(whole.read_bytes()[:200])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with pytest.raises(zipfile.BadZipFile):
            _load_feature_matrix(str(torn))
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def _save(path, matrix):
    if path.suffix == ".npy":
        np.save(path, matrix)
    else:
        np.savez(path, x=matrix)


@pytest.mark.parametrize("suffix", [".npy", ".npz"])
def test_uint8_archive_keeps_its_dtype(
    tmp_path, saved_model, trained_network, encoded_higgs, suffix
):
    """A ``uint8`` one-hot archive is not widened up front: the loader returns
    it as stored, and the tile loop's per-tile widening gives the labels of
    float64 input."""
    from repro.cli import _load_feature_matrix

    x = encoded_higgs["x_test"][:300]
    compact = tmp_path / f"compact{suffix}"
    wide = tmp_path / f"wide{suffix}"
    _save(compact, x.astype(np.uint8))
    _save(wide, x.astype(np.float64))
    loaded = _load_feature_matrix(str(compact))
    assert loaded.dtype == np.uint8
    labels = {}
    for path in (compact, wide):
        output = tmp_path / f"{path.stem}.csv"
        assert main_predict([str(path), "--model", saved_model, "--output", str(output),
                             "--quiet"]) == 0
        labels[path] = read_numeric_csv(output, skip_header=True)[:, 0].astype(np.int64)
    assert np.array_equal(labels[compact], labels[wide])
    assert np.array_equal(labels[compact], trained_network.predict(x))


@pytest.mark.parametrize(
    "matrix",
    [
        np.ones((4, 280)) * (1.0 + 0.5j),  # would have lost its imaginary part
        np.full((4, 280), "0.5"),  # would have escaped as a bare ValueError
    ],
    ids=["complex", "string"],
)
@pytest.mark.parametrize("suffix", [".npy", ".npz"])
def test_unwidenable_archive_exits_2(tmp_path, saved_model, capsys, matrix, suffix):
    features = tmp_path / f"features{suffix}"
    _save(features, matrix)
    code = main(["predict", str(features), "--model", saved_model, "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(features) in err
    assert f"unsupported dtype {matrix.dtype}" in err
    assert "Traceback" not in err


def test_json_report_describes_the_one_inference_path(
    tmp_path, saved_model, trained_network, encoded_higgs
):
    x = encoded_higgs["x_test"][:200]
    features = tmp_path / "features.npy"
    np.save(features, x)
    report = tmp_path / "report.json"
    code = main_predict(
        [str(features), "--model", saved_model, "--batch-size", "64", "--quiet",
         "--json", str(report)]
    )
    assert code == 0
    payload = json.loads(report.read_text())
    assert set(payload) == {
        "n_rows", "seconds", "rows_per_second", "batch_size", "backend",
        "workspace_bytes", "class_counts", "output",
    }
    assert payload["n_rows"] == 200 and payload["batch_size"] == 64
    labels, counts = np.unique(trained_network.predict(x), return_counts=True)
    assert payload["class_counts"] == {str(c): int(n) for c, n in zip(labels, counts)}


def test_csv_bytes_do_not_depend_on_stored_dtype_or_tile_size(
    tmp_path, saved_model, encoded_higgs
):
    x = encoded_higgs["x_test"]
    written = []
    for dtype, batch_size in [(np.uint8, 1024), (np.float64, 1024), (np.uint8, 37)]:
        features = tmp_path / f"features-{np.dtype(dtype).name}-{batch_size}.npy"
        np.save(features, x.astype(dtype))
        output = tmp_path / f"{features.stem}.csv"
        code = main_predict(
            [str(features), "--model", saved_model, "--output", str(output),
             "--batch-size", str(batch_size), "--quiet"]
        )
        assert code == 0
        written.append(output.read_bytes())
    assert written[0] == written[1] == written[2]


def test_one_inference_path(saved_model, tmp_path, capsys):
    """``--pipeline`` (stage-pipelined inference) is gone: an argparse error."""
    with pytest.raises(SystemExit) as exit_info:
        main_predict([str(tmp_path / "x.npy"), "--model", saved_model, "--pipeline"])
    assert exit_info.value.code == 2
    assert "--pipeline" in capsys.readouterr().err


def test_unknown_command():
    assert main(["frobnicate"]) == 2
