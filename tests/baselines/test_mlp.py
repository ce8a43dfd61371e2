"""Tests for the MLP baselines (shallow and deep)."""

import numpy as np
import pytest

from repro.baselines import MLPBaseline
from repro.baselines.mlp import relu, relu_grad
from repro.exceptions import ConfigurationError


def _xor_data(n=800, seed=0):
    """A problem a linear model cannot solve but a small MLP can."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 2))
    y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)
    X = X + rng.normal(0, 0.05, size=X.shape)
    return X, y


class TestActivations:
    def test_relu(self):
        assert np.array_equal(relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])
        assert np.array_equal(relu_grad(np.array([-1.0, 0.5])), [0.0, 1.0])



class TestMLP:
    def test_solves_xor(self):
        X, y = _xor_data()
        model = MLPBaseline(hidden_layers=(32,), epochs=60, learning_rate=0.1, seed=0).fit(X, y)
        assert model.evaluate(X, y)["accuracy"] > 0.9

    def test_deep_network_trains(self):
        X, y = _xor_data(seed=1)
        model = MLPBaseline(hidden_layers=(16, 16, 16), epochs=60, learning_rate=0.05, seed=0)
        model.fit(X, y)
        assert model.evaluate(X, y)["accuracy"] > 0.85

    def test_probabilities_are_distributions(self):
        X, y = _xor_data(seed=2)
        model = MLPBaseline(hidden_layers=(8,), epochs=5, seed=0).fit(X, y)
        proba = model.predict_proba(X[:20])
        assert np.allclose(proba.sum(axis=1), 1.0)
        assert np.all(proba >= 0)

    def test_dropout_still_learns(self):
        X, y = _xor_data(seed=4)
        model = MLPBaseline(hidden_layers=(48,), dropout=0.2, epochs=60, learning_rate=0.1, seed=0)
        model.fit(X, y)
        assert model.evaluate(X, y)["accuracy"] > 0.8

    def test_multiclass_shapes(self):
        rng = np.random.default_rng(5)
        y = rng.integers(0, 4, size=400)
        X = rng.normal(size=(400, 5)) + 2.0 * np.eye(5)[:, :4].T[y][:, :5]
        model = MLPBaseline(hidden_layers=(16,), epochs=10, seed=0).fit(X, y)
        assert model.predict_proba(X[:7]).shape == (7, 4)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"hidden_layers": ()},
            {"hidden_layers": (0,)},
            {"dropout": 1.0},
            {"epochs": 0},
            {"learning_rate": 0.0},
            {"momentum": 1.0},
            {"weight_decay": -1.0},
        ],
    )
    def test_invalid_configuration(self, kwargs):
        with pytest.raises(ConfigurationError):
            MLPBaseline(**kwargs)

    def test_name_encodes_architecture(self):
        assert MLPBaseline(hidden_layers=(300, 300)).name == "mlp-2x300"
