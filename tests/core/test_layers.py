"""Tests for InputSpec and StructuralPlasticityLayer."""

import numpy as np
import pytest

from repro.core import BCPNNHyperParameters, InputSpec, StructuralPlasticityLayer
from repro.core.layers import complementary_encode
from repro.exceptions import ConfigurationError, DataError, NotFittedError
from tests.core.layer_helpers import traces_consistent


def _one_hot_batch(rng, n, sizes):
    x = np.zeros((n, int(np.sum(sizes))))
    offset = 0
    for size in sizes:
        winners = rng.integers(0, size, size=n)
        x[np.arange(n), offset + winners] = 1.0
        offset += size
    return x


class TestInputSpec:
    def test_uniform_constructor(self):
        spec = InputSpec.uniform(28, 10)
        assert spec.n_hypercolumns == 28
        assert spec.n_units == 280
        assert spec.hypercolumn_sizes == [10] * 28

    def test_validate_batch(self):
        spec = InputSpec([2, 2])
        assert spec.validate_batch(np.ones((3, 4))).shape == (3, 4)
        with pytest.raises(DataError):
            spec.validate_batch(np.ones((3, 5)))
        with pytest.raises(DataError):
            spec.validate_batch(np.ones(4))

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            InputSpec([])


class TestComplementaryEncode:
    def test_pairs_sum_to_one(self):
        values = np.array([[0.2, 0.8], [0.0, 1.0]])
        encoded = complementary_encode(values)
        assert encoded.shape == (2, 4)
        assert np.allclose(encoded[:, 0] + encoded[:, 1], 1.0)
        assert np.allclose(encoded[0], [0.2, 0.8, 0.8, 0.2])

    def test_out_of_range_rejected(self):
        with pytest.raises(DataError):
            complementary_encode(np.array([[1.5]]))


class TestLayerLifecycle:
    def test_build_allocates_state(self, small_input_spec):
        layer = StructuralPlasticityLayer(2, 5, density=0.5, seed=0)
        layer.build(small_input_spec)
        assert layer.is_built
        assert layer.weights.shape == (12, 10)
        assert layer.plasticity.mask.shape == (4, 2)
        assert layer.output_spec.hypercolumn_sizes == [5, 5]

    def test_unbuilt_usage_rejected(self):
        layer = StructuralPlasticityLayer(2, 5)
        with pytest.raises(NotFittedError):
            layer.forward(np.ones((1, 12)))
        with pytest.raises(NotFittedError):
            layer.refresh_weights()

    def test_build_requires_input_spec(self):
        with pytest.raises(ConfigurationError):
            StructuralPlasticityLayer(2, 5).build([2, 2])

    def test_density_argument_overrides_hyperparams(self):
        hp = BCPNNHyperParameters(density=0.9)
        layer = StructuralPlasticityLayer(1, 5, density=0.2, hyperparams=hp)
        assert layer.hyperparams.density == 0.2


class TestForwardAndTraining:
    def test_forward_outputs_distributions(self, small_input_spec, small_one_hot_batch):
        layer = StructuralPlasticityLayer(3, 4, density=0.5, seed=1)
        layer.build(small_input_spec)
        activations = layer.forward(small_one_hot_batch)
        assert activations.shape == (64, 12)
        for h in range(3):
            assert np.allclose(activations[:, h * 4 : (h + 1) * 4].sum(axis=1), 1.0)

    def test_train_batch_updates_state(self, small_input_spec, small_one_hot_batch):
        layer = StructuralPlasticityLayer(2, 4, density=0.5, seed=2)
        layer.build(small_input_spec)
        weights_before = layer.weights.copy()
        layer.train_batch(small_one_hot_batch)
        assert layer.batches_trained == 1
        assert not np.allclose(layer.weights, weights_before)

    def test_training_differentiates_minicolumns(self):
        # Two clearly distinct input patterns: MCUs should specialise so that
        # the two patterns activate different winners.
        rng = np.random.default_rng(0)
        spec = InputSpec.uniform(6, 2)
        pattern_a = np.tile(np.array([1.0, 0.0]), 6)
        pattern_b = np.tile(np.array([0.0, 1.0]), 6)
        x = np.stack([pattern_a if rng.random() < 0.5 else pattern_b for _ in range(300)])
        layer = StructuralPlasticityLayer(
            1, 4, density=1.0, hyperparams=BCPNNHyperParameters(taupdt=0.05, density=1.0), seed=3
        )
        layer.build(spec)
        for start in range(0, 300, 50):
            layer.train_batch(x[start : start + 50])
        act_a = layer.forward(pattern_a[None, :])
        act_b = layer.forward(pattern_b[None, :])
        assert act_a.argmax() != act_b.argmax()

    def test_end_epoch_respects_period(self, small_input_spec, small_one_hot_batch):
        hp = BCPNNHyperParameters(taupdt=0.05, density=0.5, mask_update_period=2)
        layer = StructuralPlasticityLayer(2, 4, hyperparams=hp, seed=4)
        layer.build(small_input_spec)
        layer.train_batch(small_one_hot_batch)
        assert layer.end_epoch(0) == 0  # epoch 1 of period 2: skipped
        # epoch 2 runs the update (may or may not swap, but it must not raise).
        swaps = layer.end_epoch(1)
        assert swaps >= 0

    def test_competition_modes_produce_valid_updates(self, small_input_spec, small_one_hot_batch):
        for mode in ("softmax", "noisy_softmax", "sample"):
            hp = BCPNNHyperParameters(taupdt=0.1, density=1.0, competition=mode)
            layer = StructuralPlasticityLayer(2, 3, hyperparams=hp, seed=6)
            layer.build(small_input_spec)
            layer.train_batch(small_one_hot_batch)
            assert traces_consistent(layer.traces)

    def test_state_dict_round_trip(self, small_input_spec, small_one_hot_batch):
        layer = StructuralPlasticityLayer(2, 4, density=0.5, seed=7)
        layer.build(small_input_spec)
        layer.train_batch(small_one_hot_batch)
        state = layer.state_dict()
        restored = StructuralPlasticityLayer(2, 4, seed=99)
        restored.load_state_dict(state)
        assert np.allclose(restored.weights, layer.weights)
        assert np.array_equal(restored.plasticity.mask, layer.plasticity.mask)
        assert np.allclose(
            restored.forward(small_one_hot_batch), layer.forward(small_one_hot_batch)
        )
