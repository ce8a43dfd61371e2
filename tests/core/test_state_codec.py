"""The one state codec: ``state_dict(training=...)`` / ``load_state_dict``.

A model file is every layer's codec without the training extras; a
checkpoint is the same payload with them.  A layer restored from its
training state continues bit for bit; a checkpoint in the layout written
before the codec is refused for resume by its format version.
"""

import json

import numpy as np
import pytest

from repro.checkpoint import CheckpointManager, network_from_checkpoint, training_fingerprint
from repro.core import (
    BCPNNClassifier,
    InputSpec,
    Network,
    SGDClassifier,
    StructuralPlasticityLayer,
    TrainingSchedule,
)
from repro.core.serialization import network_state
from repro.exceptions import CheckpointError


def _one_hot(seed=0, n=96, blocks=(3, 4, 5)):
    rng = np.random.default_rng(seed)
    x = np.zeros((n, sum(blocks)))
    offset = 0
    for b in blocks:
        x[np.arange(n), offset + rng.integers(0, b, n)] = 1
        offset += b
    return x, rng.integers(0, 2, n), list(blocks)


def _network(head):
    net = Network(seed=7)
    net.add(StructuralPlasticityLayer(n_hypercolumns=2, n_minicolumns=3, seed=8))
    net.add(SGDClassifier(n_classes=2, seed=9) if head == "sgd" else BCPNNClassifier(2))
    return net


def _schedule():
    return TrainingSchedule(hidden_epochs=2, classifier_epochs=2, sgd_epochs=1, batch_size=32)


class TestLayerCodec:
    def test_hidden_layer_continues_bitwise(self):
        x, _, blocks = _one_hot()
        layer = StructuralPlasticityLayer(2, 3, density=0.5, seed=1)
        layer.build(InputSpec(blocks))
        layer.train_batch(x[:32])
        clone = StructuralPlasticityLayer(2, 3, seed=99)
        clone.load_state_dict(layer.state_dict(training=True))
        for twin in (layer, clone):  # ``sample`` noise, then a plasticity swap
            twin.train_batch(x[32:64])
            twin.end_epoch(0)
            twin.train_batch(x[64:])
        assert np.array_equal(clone.traces.p_ij, layer.traces.p_ij)
        assert np.array_equal(clone.plasticity.mask, layer.plasticity.mask)
        assert clone._rng.bit_generator.state == layer._rng.bit_generator.state

    def test_sgd_head_continues_bitwise(self):
        x, y, blocks = _one_hot()
        head = SGDClassifier(2, seed=1)
        head.build(InputSpec(blocks))
        head.train_batch(x[:32], y[:32])
        clone = SGDClassifier(2, seed=99)
        clone.load_state_dict(head.state_dict(training=True))
        for twin in (head, clone):
            twin.train_batch(x[32:], y[32:])
        assert np.array_equal(clone.weights, head.weights)
        assert clone._rng.bit_generator.state == head._rng.bit_generator.state

    def test_bcpnn_head_skips_calibration_after_restore(self):
        x, y, blocks = _one_hot()
        head = BCPNNClassifier(2)
        head.build(InputSpec(blocks))
        head.train_batch(x[:32], y[:32])
        clone = BCPNNClassifier(2)
        clone.load_state_dict(head.state_dict(training=True))
        for twin in (head, clone):
            twin.train_batch(x[32:], y[32:])
        assert np.array_equal(clone.traces.p_ij, head.traces.p_ij)

    def test_model_payload_carries_no_training_extras(self):
        x, y, blocks = _one_hot()
        net = _network("sgd")
        net.fit(x, y, input_spec=blocks, schedule=_schedule())
        header, arrays = network_state(net)
        layer0 = ["layer0.mask", "layer0.p_i", "layer0.p_ij", "layer0.p_j"]
        assert sorted(arrays) == layer0 + ["layer1.bias", "layer1.weights"]
        header, arrays = network_state(net, training=True)
        assert arrays["layer0.rng"].dtype == np.uint64 and arrays["layer0.rng"].shape == (6,)
        assert {"layer1.rng", "layer1.vel_w", "layer1.vel_b"} <= set(arrays)


class TestCheckpointLayout:
    def test_checkpoint_is_the_training_payload(self, tmp_path):
        x, y, blocks = _one_hot()
        net = _network("bcpnn")
        net.fit(x, y, input_spec=blocks, schedule=_schedule(), checkpoint_dir=tmp_path)
        meta, arrays = CheckpointManager(tmp_path).load(CheckpointManager(tmp_path).latest_path())
        assert meta["format_version"] == 2
        assert "layers_extra" not in meta and "network_rng" not in meta
        assert arrays["network.rng"].dtype == np.uint64
        assert meta["model"]["layers"][1]["batches_trained"] > 0

    def test_parent_layout_checkpoint_is_refused_by_version(self, tmp_path):
        """A checkpoint as written before the codec: model header, per-layer
        extras in ``layers_extra`` and generators as JSON state dicts."""
        x, y, blocks = _one_hot()
        schedule = _schedule()
        net = _network("sgd")
        net.fit(x, y, input_spec=blocks, schedule=schedule)
        header, arrays = network_state(net)
        hidden, head = net.layers
        arrays["layer1.vel_w"] = head._vel_w.copy()
        arrays["layer1.vel_b"] = head._vel_b.copy()
        meta = {
            "model": header,
            "layers_extra": [
                {"rng_state": hidden._rng.bit_generator.state},
                {"rng_state": head._rng.bit_generator.state, "weights_token": 5},
            ],
            "network_rng": net._rng.bit_generator.state,
            "history": [],
            "cursor": {"phase": "head", "epochs_done": 1},
            "unit": None,
            "fingerprint": training_fingerprint(_network("sgd"), schedule, x.shape),
        }
        meta = json.loads(json.dumps(meta))
        path = CheckpointManager(tmp_path).save(arrays, meta, step=1)

        with pytest.raises(CheckpointError, match="format version 1") as excinfo:
            _network("sgd").fit(
                x, y, input_spec=blocks, schedule=schedule, checkpoint_dir=tmp_path, resume=True
            )
        assert excinfo.value.path == str(path)

        loaded = network_from_checkpoint(path)
        assert np.array_equal(loaded.predict_proba(x), net.predict_proba(x))
