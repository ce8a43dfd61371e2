"""Accuracy and log loss of a classifier's labels and probabilities."""

from __future__ import annotations

import numpy as np

from repro.exceptions import DataError
from repro.utils.validation import check_labels, check_same_length

__all__ = ["accuracy", "log_loss"]


def accuracy(y_true, y_pred) -> float:
    """Fraction of exactly matching predictions."""
    y_true, y_pred = check_same_length(y_true, y_pred, names=("y_true", "y_pred"))
    y_true = check_labels(y_true, name="y_true")
    y_pred = check_labels(y_pred, name="y_pred")
    return float(np.mean(y_true == y_pred))


def log_loss(y_true, probabilities, eps: float = 1e-12) -> float:
    """Mean negative log-likelihood of the true class.

    ``probabilities`` is ``(n_samples, n_classes)`` with rows summing to one,
    or a 1-D vector of positive-class probabilities for binary problems.
    """
    probs = np.asarray(probabilities, dtype=np.float64)
    y_true = check_labels(y_true, name="y_true")
    if probs.ndim == 1:
        probs = np.stack([1.0 - probs, probs], axis=1)
    if probs.ndim != 2:
        raise DataError("probabilities must be 1-D or 2-D")
    if probs.shape[0] != y_true.shape[0]:
        raise DataError("probabilities and y_true have mismatched lengths")
    if np.any(y_true >= probs.shape[1]):
        raise DataError("y_true contains a class not covered by probabilities")
    picked = probs[np.arange(y_true.shape[0]), y_true]
    picked = np.clip(picked, eps, 1.0)
    return float(-np.mean(np.log(picked)))
