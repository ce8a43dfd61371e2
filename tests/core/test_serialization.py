"""Tests for model save/load."""

import json

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
from repro.core.serialization import _instantiate_layer, _network_payload
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
        payload = _network_payload(net)
        header = json.loads(payload["header"].tobytes().decode("utf-8"))
        header["layers"][0]["sparse"] = mode
        payload["header"] = np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8)
        path = tmp_path / "legacy.npz"
        np.savez(path, **payload)
        restored = load_network(path)
        layer = net.hidden_layers[0]
        assert restored.hidden_layers[0].sparse_active == layer.sparse_active
        assert np.array_equal(restored.predict_proba(x), net.predict_proba(x))


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
