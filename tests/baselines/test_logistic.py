"""Tests for the logistic-regression baseline."""

import numpy as np
import pytest

from repro.baselines import LogisticRegressionBaseline
from repro.exceptions import ConfigurationError, DataError, NotFittedError


def _blobs(n=500, d=4, seed=0, separation=2.0):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=n)
    X = rng.normal(size=(n, d))
    X[:, 0] += separation * labels
    return X, labels


class TestLogisticRegression:
    def test_learns_separable_blobs(self):
        X, y = _blobs(separation=3.0)
        model = LogisticRegressionBaseline(epochs=20, seed=0).fit(X, y)
        assert model.evaluate(X, y)["accuracy"] > 0.9

    def test_auc_on_held_out_data(self):
        X, y = _blobs(n=1000, seed=1)
        X_test, y_test = _blobs(n=400, seed=2)
        model = LogisticRegressionBaseline(epochs=20, seed=0).fit(X, y)
        assert model.evaluate(X_test, y_test)["auc"] > 0.85

    def test_multiclass(self):
        rng = np.random.default_rng(3)
        y = rng.integers(0, 3, size=600)
        X = rng.normal(size=(600, 3)) + 3.0 * np.eye(3)[y]
        model = LogisticRegressionBaseline(epochs=25, seed=0).fit(X, y)
        assert model.evaluate(X, y)["accuracy"] > 0.85
        assert model.predict_proba(X[:5]).shape == (5, 3)

    def test_predict_before_fit(self):
        with pytest.raises(NotFittedError):
            LogisticRegressionBaseline().predict_proba(np.ones((2, 3)))

    def test_feature_width_checked(self):
        X, y = _blobs()
        model = LogisticRegressionBaseline(epochs=2, seed=0).fit(X, y)
        with pytest.raises(DataError):
            model.predict_proba(np.ones((3, 7)))

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            LogisticRegressionBaseline().fit(np.ones((10, 2)), np.zeros(10, dtype=int))

    def test_invalid_hyperparameters(self):
        with pytest.raises(ConfigurationError):
            LogisticRegressionBaseline(epochs=0)
        with pytest.raises(ConfigurationError):
            LogisticRegressionBaseline(learning_rate=-1)
        with pytest.raises(ConfigurationError):
            LogisticRegressionBaseline(momentum=1.5)

