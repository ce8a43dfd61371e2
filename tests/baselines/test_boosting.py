"""Tests for gradient-boosted trees."""

import numpy as np
import pytest

from repro.baselines import GradientBoostingBaseline
from repro.baselines.trees import RegressionTree
from repro.exceptions import ConfigurationError, DataError
from repro.metrics import roc_auc


def _nonlinear_data(n=800, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2, 2, size=(n, 4))
    logits = np.sin(2 * X[:, 0]) + X[:, 1] * X[:, 2]
    y = (logits + rng.normal(0, 0.3, size=n) > 0).astype(int)
    return X, y


class TestGradientBoosting:
    def test_learns_nonlinear_problem(self):
        X, y = _nonlinear_data()
        model = GradientBoostingBaseline(
            n_estimators=100, max_depth=4, learning_rate=0.2, seed=0
        ).fit(X, y)
        assert model.evaluate(X, y)["accuracy"] > 0.85

    def test_beats_single_tree_on_held_out_data(self):
        X, y = _nonlinear_data(seed=1)
        X_test, y_test = _nonlinear_data(seed=2)
        boosted = GradientBoostingBaseline(n_estimators=50, max_depth=3, seed=0).fit(X, y)
        # A single tree of the same depth on the 0/1 labels: its leaf means
        # are the class-1 probabilities.
        single = RegressionTree(max_depth=3, min_samples_leaf=20).fit(X, y.astype(float))
        single_auc = roc_auc(y_test, single.predict(X_test)[:, 0])
        assert boosted.evaluate(X_test, y_test)["auc"] > single_auc

    def test_training_loss_decreases(self):
        X, y = _nonlinear_data(seed=3)
        model = GradientBoostingBaseline(n_estimators=30, max_depth=2, seed=0).fit(X, y)
        losses = model.train_losses_
        assert losses[-1] < losses[0]

    def test_early_stopping_limits_trees(self):
        X, y = _nonlinear_data(seed=4)
        model = GradientBoostingBaseline(
            n_estimators=200, max_depth=2, early_stopping_rounds=5, seed=0
        ).fit(X, y)
        assert len(model.trees_) <= 200
        assert len(model.validation_losses_) == len(model.train_losses_)

    def test_subsampling_still_learns(self):
        X, y = _nonlinear_data(seed=5)
        model = GradientBoostingBaseline(
            n_estimators=80, max_depth=4, learning_rate=0.2, subsample=0.5, seed=0
        ).fit(X, y)
        assert model.evaluate(X, y)["accuracy"] > 0.8

    def test_decision_function_monotone_with_probability(self):
        X, y = _nonlinear_data(seed=6)
        model = GradientBoostingBaseline(n_estimators=20, seed=0).fit(X, y)
        scores = model.decision_function(X[:50])
        probs = model.predict_proba(X[:50])[:, 1]
        order_scores = np.argsort(scores)
        order_probs = np.argsort(probs)
        assert np.array_equal(order_scores, order_probs)

    def test_multiclass_rejected(self):
        rng = np.random.default_rng(7)
        X = rng.random((60, 3))
        y = rng.integers(0, 3, size=60)
        with pytest.raises(DataError):
            GradientBoostingBaseline(n_estimators=5).fit(X, y)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_estimators": 0},
            {"learning_rate": 0.0},
            {"subsample": 0.0},
            {"subsample": 1.5},
            {"early_stopping_rounds": 0},
            {"validation_fraction": 1.0},
        ],
    )
    def test_invalid_configuration(self, kwargs):
        with pytest.raises(ConfigurationError):
            GradientBoostingBaseline(**kwargs)
