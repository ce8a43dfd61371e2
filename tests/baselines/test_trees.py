"""Tests for regression/classification trees."""

import numpy as np
import pytest

from repro.baselines.trees import RegressionTree
from repro.exceptions import ConfigurationError


class TestRegressionTree:
    def test_fits_step_function(self):
        X = np.linspace(0, 1, 200)[:, None]
        y = (X[:, 0] > 0.5).astype(float)
        tree = RegressionTree(max_depth=2, min_samples_leaf=5).fit(X, y)
        predictions = tree.predict(X)[:, 0]
        assert np.mean((predictions > 0.5) == (y > 0.5)) > 0.97

    def test_constant_target_gives_single_leaf(self):
        X = np.random.default_rng(0).random((50, 3))
        y = np.ones(50)
        tree = RegressionTree(max_depth=4).fit(X, y)
        assert tree.root_.is_leaf
        assert np.allclose(tree.predict(X), 1.0)

    def test_multi_output_targets(self):
        rng = np.random.default_rng(1)
        X = rng.random((150, 2))
        targets = np.stack([X[:, 0] > 0.5, X[:, 1] > 0.5], axis=1).astype(float)
        tree = RegressionTree(max_depth=3, min_samples_leaf=5).fit(X, targets)
        predictions = tree.predict(X)
        assert predictions.shape == (150, 2)
        assert np.mean((predictions[:, 0] > 0.5) == (targets[:, 0] > 0.5)) > 0.9

    def test_min_samples_leaf_respected(self):
        X = np.random.default_rng(2).random((30, 1))
        y = np.random.default_rng(3).random(30)
        tree = RegressionTree(max_depth=10, min_samples_leaf=20).fit(X, y)
        # Not enough samples for any split.
        assert tree.root_.is_leaf

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            RegressionTree(max_depth=0)
        with pytest.raises(ConfigurationError):
            RegressionTree(min_samples_leaf=0)
        with pytest.raises(ConfigurationError):
            RegressionTree(max_thresholds=0)

    def test_predict_before_fit(self):
        with pytest.raises(ConfigurationError):
            RegressionTree().predict(np.ones((2, 2)))

    def test_misaligned_targets(self):
        with pytest.raises(ConfigurationError):
            RegressionTree().fit(np.ones((5, 2)), np.ones(4))
