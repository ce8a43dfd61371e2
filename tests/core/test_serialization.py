"""Tests for model save/load."""

import gc
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro import faults
from repro.core import (
    BCPNNClassifier,
    Network,
    SGDClassifier,
    StructuralPlasticityLayer,
    TrainingSchedule,
    load_network,
    save_network,
)
from repro.cli import main
from repro.core.serialization import _instantiate_layer, network_state
from repro.exceptions import SerializationError


class TestSaveLoad:
    def test_round_trip_preserves_predictions(self, trained_network, encoded_higgs, tmp_path):
        path = save_network(trained_network, tmp_path / "model.npz")
        restored = load_network(path)
        x = encoded_higgs["x_test"][:64]
        assert np.allclose(restored.predict_proba(x), trained_network.predict_proba(x))
        assert restored.is_fitted

    def test_round_trip_bcpnn_head(self, encoded_higgs, tmp_path):
        net = Network(seed=0)
        net.add(StructuralPlasticityLayer(1, 12, density=0.5, seed=1))
        net.add(BCPNNClassifier(n_classes=2))
        net.fit(
            encoded_higgs["x_train"][:600],
            encoded_higgs["y_train"][:600],
            input_spec=encoded_higgs["spec"],
            schedule=TrainingSchedule(hidden_epochs=2, classifier_epochs=2, batch_size=128),
        )
        path = save_network(net, tmp_path / "bcpnn_head")
        assert path.suffix == ".npz"
        restored = load_network(path)
        x = encoded_higgs["x_test"][:32]
        assert np.array_equal(restored.predict(x), net.predict(x))

    def test_unbuilt_network_rejected(self, tmp_path):
        net = Network()
        net.add(StructuralPlasticityLayer(1, 5))
        net.add(SGDClassifier(n_classes=2))
        with pytest.raises(SerializationError):
            save_network(net, tmp_path / "x.npz")

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(SerializationError):
            load_network(tmp_path / "does_not_exist.npz")

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "corrupt.npz"
        path.write_bytes(b"this is not an npz archive")
        with pytest.raises(SerializationError):
            load_network(path)

    def test_unknown_layer_kind_rejected(self):
        with pytest.raises(SerializationError):
            _instantiate_layer("MysteryLayer", {})

    @pytest.mark.parametrize("mode", ["auto", "on", "off"])
    def test_saved_sparse_key_is_ignored(self, mode, tmp_path):
        """Models saved while the ``sparse`` option existed carry it in the
        layer header; it loads, and the mask alone picks the plan."""
        net, x = _tiny_fitted_network()
        header, arrays = network_state(net)
        header["layers"][0]["sparse"] = mode
        path = _write_model(tmp_path / "legacy.npz", header, arrays)
        restored = load_network(path)
        layer = net.hidden_layers[0]
        assert restored.hidden_layers[0].sparse_active == layer.sparse_active
        assert np.array_equal(restored.predict_proba(x), net.predict_proba(x))


def _write_model(path, header, arrays):
    """A model file with a hand-edited header, as ``save_network`` lays it out."""
    header_bytes = np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8)
    np.savez(path, header=header_bytes, **arrays)
    return path


def _tiny_fitted_network():
    rng = np.random.default_rng(0)
    blocks = [3, 4]
    cols = []
    for b in blocks:
        onehot = np.zeros((64, b))
        onehot[np.arange(64), rng.integers(0, b, 64)] = 1
        cols.append(onehot)
    x, y = np.hstack(cols), rng.integers(0, 2, 64)
    net = Network(seed=1)
    net.add(StructuralPlasticityLayer(1, 4, seed=2))
    net.add(SGDClassifier(n_classes=2, seed=3))
    net.fit(
        x,
        y,
        input_spec=blocks,
        schedule=TrainingSchedule(hidden_epochs=1, classifier_epochs=1, batch_size=32),
    )
    return net, x


class TestTruncatedModels:
    """A model file cut off mid-write must be rejected, never half-loaded."""

    @pytest.mark.parametrize("cut", [1, 16, 128, 1024])
    def test_truncated_file_rejected_at_every_offset(self, tmp_path, cut):
        net, _ = _tiny_fitted_network()
        path = save_network(net, tmp_path / "model.npz")
        data = path.read_bytes()
        assert len(data) > cut
        path.write_bytes(data[:-cut])
        with pytest.raises(SerializationError) as excinfo:
            load_network(path)
        assert str(path) in str(excinfo.value)

    @pytest.mark.parametrize("keep", [0, 10, 200])
    def test_truncated_prefix_rejected(self, tmp_path, keep):
        net, _ = _tiny_fitted_network()
        path = save_network(net, tmp_path / "model.npz")
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(SerializationError):
            load_network(path)

    @pytest.mark.parametrize("keep", [10, 200])
    def test_torn_file_closes_its_descriptor(self, tmp_path, keep):
        net, _ = _tiny_fitted_network()
        path = save_network(net, tmp_path / "model.npz")
        path.write_bytes(path.read_bytes()[:keep])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(SerializationError):
                load_network(path)
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


class TestCrashSafeSave:
    def test_failed_save_keeps_previous_model_loadable(self, tmp_path):
        net, x = _tiny_fitted_network()
        path = save_network(net, tmp_path / "model.npz")
        expected = net.predict(x)

        faults.install_plan(faults.FaultPlan("checkpoint.fsync@count=1"))
        try:
            with pytest.raises(SerializationError, match=str(tmp_path)):
                save_network(net, path)
        finally:
            faults.install_plan(None)

        # The interrupted overwrite left no temp litter and the original
        # archive still loads and predicts identically.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.npz"]
        restored = load_network(path)
        assert np.array_equal(restored.predict(x), expected)


def _drop_layers(header, arrays):
    del header["layers"]


def _drop_learning_rate(header, arrays):
    del header["layers"][1]["learning_rate"]


def _misshape_weights(header, arrays):
    arrays["layer1.weights"] = arrays["layer1.weights"][:-1]


def _version_zero(header, arrays):
    header["format_version"] = 0


class TestMalformedModels:
    """A valid archive whose header does not describe a network is refused
    with a SerializationError naming the file, never a raw exception."""

    CASES = {
        "no-layers": (_drop_layers, "'layers'"),
        "sgd-without-learning-rate": (_drop_learning_rate, "'learning_rate'"),
        "weights-wrong-shape": (_misshape_weights, "broadcast"),
        "version-0": (_version_zero, "unsupported model format version 0"),
    }

    def _malformed(self, tmp_path, case):
        edit, reason = self.CASES[case]
        net, x = _tiny_fitted_network()
        header, arrays = network_state(net)
        edit(header, arrays)
        return _write_model(tmp_path / f"{case}.npz", header, arrays), reason, x

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_load_network_names_the_file(self, tmp_path, case):
        path, reason, _ = self._malformed(tmp_path, case)
        with pytest.raises(SerializationError) as excinfo:
            load_network(path)
        message = str(excinfo.value)
        assert message.startswith(f"{path}: ") and reason in message

    def test_repro_predict_exits_2_with_the_path(self, tmp_path, capsys):
        path, reason, x = self._malformed(tmp_path, "sgd-without-learning-rate")
        features = tmp_path / "features.npy"
        np.save(features, x)
        code = main(["predict", str(features), "--model", str(path), "--quiet"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {path}: ") and reason in err
        assert "Traceback" not in err


class TestParentModelFiles:
    """Model files written before the one state codec still load.

    ``tests/core/data/legacy_*.npz`` were written by the commit before the
    codec (``1889a90``): ``git archive 1889a90 | tar -x -C parent``, then
    ``cd parent && PYTHONPATH=src python <this repo>/tests/core/data/make_legacy_models.py
    <this repo>/tests/core/data``.  ``legacy_expected.npz`` holds the rows
    they were asked to predict and what they answered there.
    """

    DATA = Path(__file__).parent / "data"

    @pytest.mark.parametrize("head", ["sgd", "bcpnn"])
    def test_parent_model_predicts_as_recorded(self, head):
        network = load_network(self.DATA / f"legacy_{head}.npz")
        with np.load(self.DATA / "legacy_expected.npz") as expected:
            x = expected["x"]
            assert np.array_equal(network.predict(x), expected[f"{head}_predict"])
            assert np.array_equal(network.predict_proba(x), expected[f"{head}_proba"])
        assert network.is_fitted
