"""Gradient-boosted decision trees (the "BDT" baseline).

A from-scratch implementation of gradient boosting for binary
classification with the logistic loss: at every round a
:class:`repro.baselines.trees.RegressionTree` is fitted to the negative
gradient (residual ``y - p``) and added to the ensemble with a shrinkage
factor.  Stochastic boosting (row subsampling) and early stopping on a
validation fraction are supported — the same family of model that reached
~80% AUC in Baldi et al.'s comparison on the real HIGGS data.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.baselines.base import BaselineClassifier
from repro.baselines.trees import RegressionTree
from repro.exceptions import ConfigurationError, DataError
from repro.utils.rng import as_rng

__all__ = ["GradientBoostingBaseline"]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    expz = np.exp(z[~positive])
    out[~positive] = expz / (1.0 + expz)
    return out


class GradientBoostingBaseline(BaselineClassifier):
    """Binary gradient-boosted trees with logistic loss.

    Parameters
    ----------
    n_estimators:
        Maximum number of boosting rounds.
    learning_rate:
        Shrinkage applied to every tree's contribution.
    max_depth, min_samples_leaf, max_thresholds:
        Weak-learner (regression tree) capacity controls.
    subsample:
        Row subsampling fraction per round (stochastic gradient boosting).
    early_stopping_rounds:
        Stop when the validation log-loss has not improved for this many
        rounds (``None`` disables early stopping).
    validation_fraction:
        Fraction of the training set held out for early stopping.
    """

    name = "gradient-boosting"

    def __init__(
        self,
        n_estimators: int = 100,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        min_samples_leaf: int = 20,
        max_thresholds: int = 16,
        subsample: float = 1.0,
        early_stopping_rounds: Optional[int] = None,
        validation_fraction: float = 0.1,
        seed=None,
    ) -> None:
        super().__init__()
        if n_estimators <= 0:
            raise ConfigurationError("n_estimators must be positive")
        if learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")
        if not 0.0 < subsample <= 1.0:
            raise ConfigurationError("subsample must be in (0, 1]")
        if early_stopping_rounds is not None and early_stopping_rounds <= 0:
            raise ConfigurationError("early_stopping_rounds must be positive when set")
        if not 0.0 < validation_fraction < 1.0:
            raise ConfigurationError("validation_fraction must be in (0, 1)")
        self.n_estimators = int(n_estimators)
        self.learning_rate = float(learning_rate)
        self.max_depth = int(max_depth)
        self.min_samples_leaf = int(min_samples_leaf)
        self.max_thresholds = int(max_thresholds)
        self.subsample = float(subsample)
        self.early_stopping_rounds = early_stopping_rounds
        self.validation_fraction = float(validation_fraction)
        self._rng = as_rng(seed)
        self.trees_: List[RegressionTree] = []
        self.initial_score_: float = 0.0
        self.train_losses_: List[float] = []
        self.validation_losses_: List[float] = []

    # ----------------------------------------------------------------- fit
    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        if self.n_classes_ != 2:
            raise DataError("GradientBoostingBaseline supports binary classification only")
        rng = self._rng
        n = X.shape[0]
        # Hold out a validation slice for early stopping.
        use_validation = self.early_stopping_rounds is not None
        if use_validation:
            order = rng.permutation(n)
            n_val = max(1, int(round(n * self.validation_fraction)))
            val_idx, train_idx = order[:n_val], order[n_val:]
        else:
            train_idx = np.arange(n)
            val_idx = np.empty(0, dtype=np.int64)
        X_train, y_train = X[train_idx], y[train_idx].astype(np.float64)
        X_val, y_val = X[val_idx], y[val_idx].astype(np.float64)

        prior = np.clip(y_train.mean(), 1e-6, 1 - 1e-6)
        self.initial_score_ = float(np.log(prior / (1.0 - prior)))
        self.trees_ = []
        self.train_losses_ = []
        self.validation_losses_ = []

        score_train = np.full(X_train.shape[0], self.initial_score_)
        score_val = np.full(X_val.shape[0], self.initial_score_)
        best_val = np.inf
        rounds_since_best = 0
        best_length = 0

        for _ in range(self.n_estimators):
            prob = _sigmoid(score_train)
            residual = y_train - prob
            if self.subsample < 1.0:
                pick = rng.random(X_train.shape[0]) < self.subsample
                if pick.sum() < 2 * self.min_samples_leaf:
                    pick = np.ones(X_train.shape[0], dtype=bool)
            else:
                pick = np.ones(X_train.shape[0], dtype=bool)
            tree = RegressionTree(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_thresholds=self.max_thresholds,
            ).fit(X_train[pick], residual[pick])
            self.trees_.append(tree)
            score_train += self.learning_rate * tree.predict(X_train)[:, 0]
            train_loss = self._log_loss(y_train, _sigmoid(score_train))
            self.train_losses_.append(train_loss)
            if use_validation:
                score_val += self.learning_rate * tree.predict(X_val)[:, 0]
                val_loss = self._log_loss(y_val, _sigmoid(score_val))
                self.validation_losses_.append(val_loss)
                if val_loss < best_val - 1e-6:
                    best_val = val_loss
                    rounds_since_best = 0
                    best_length = len(self.trees_)
                else:
                    rounds_since_best += 1
                    if rounds_since_best >= self.early_stopping_rounds:
                        self.trees_ = self.trees_[:best_length]
                        break

    @staticmethod
    def _log_loss(y: np.ndarray, p: np.ndarray) -> float:
        p = np.clip(p, 1e-12, 1 - 1e-12)
        return float(-np.mean(y * np.log(p) + (1 - y) * np.log(1 - p)))

    # ------------------------------------------------------------- predict
    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Additive log-odds score of the ensemble."""
        self._check_fitted()
        X = np.asarray(X, dtype=np.float64)
        score = np.full(X.shape[0], self.initial_score_)
        for tree in self.trees_:
            score += self.learning_rate * tree.predict(X)[:, 0]
        return score

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        prob = _sigmoid(self.decision_function(X))
        return np.stack([1.0 - prob, prob], axis=1)
