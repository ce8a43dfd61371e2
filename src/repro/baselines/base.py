"""Common interface for baseline classifiers."""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.exceptions import DataError, NotFittedError
from repro.metrics.classification import accuracy, log_loss
from repro.metrics.roc import roc_auc
from repro.utils.validation import check_array, check_labels

__all__ = ["BaselineClassifier"]


class BaselineClassifier:
    """Base class providing the shared fit/predict/evaluate contract.

    Subclasses implement ``_fit(X, y)`` and ``_predict_proba(X)``; everything
    else (validation, evaluation metrics, binary score extraction) is shared.
    """

    name: str = "baseline"

    def __init__(self) -> None:
        self.n_classes_: Optional[int] = None
        self.n_features_: Optional[int] = None

    # ------------------------------------------------------------------ API
    def fit(self, X: np.ndarray, y: np.ndarray) -> "BaselineClassifier":
        X = check_array(X, name="X", ndim=2)
        y = check_labels(y, name="y")
        if X.shape[0] != y.shape[0]:
            raise DataError("X and y are misaligned")
        self.n_classes_ = int(y.max()) + 1
        if self.n_classes_ < 2:
            raise DataError("at least two classes are required")
        self.n_features_ = X.shape[1]
        self._fit(X, y)
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        self._check_fitted()
        X = check_array(X, name="X", ndim=2)
        if X.shape[1] != self.n_features_:
            raise DataError(
                f"X has {X.shape[1]} features; the model was fitted with {self.n_features_}"
            )
        proba = self._predict_proba(X)
        return np.asarray(proba, dtype=np.float64)

    def evaluate(self, X: np.ndarray, y: np.ndarray) -> Dict[str, float]:
        """Accuracy, log-loss and (binary) AUC on a labelled set."""
        y = check_labels(y, name="y")
        proba = self.predict_proba(X)
        result = {
            "accuracy": accuracy(y, np.argmax(proba, axis=1)),
            "log_loss": log_loss(y, proba),
        }
        if proba.shape[1] == 2 and len(np.unique(y)) == 2:
            result["auc"] = roc_auc(y, proba[:, 1])
        return result

    # ------------------------------------------------------------ internals
    def _check_fitted(self) -> None:
        if self.n_classes_ is None:
            raise NotFittedError(f"{type(self).__name__} has not been fitted")

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        raise NotImplementedError

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError
