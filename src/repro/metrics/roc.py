"""ROC / AUC, computed with vectorised NumPy.

The AUC reported in the paper (76.4% for the BCPNN+SGD hybrid) is the area
under the ROC curve of the signal-class score.  :func:`roc_auc` follows the
standard construction (sort scores descending, accumulate TP/FP counts,
trapezoidal integration); the test-suite checks it against the
Mann-Whitney-U formulation.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.exceptions import DataError

__all__ = ["roc_curve", "roc_auc"]


def _validate_binary(y_true, scores) -> Tuple[np.ndarray, np.ndarray]:
    y_true = np.asarray(y_true)
    scores = np.asarray(scores, dtype=np.float64)
    if y_true.ndim != 1 or scores.ndim != 1:
        raise DataError("y_true and scores must be 1-D")
    if y_true.shape[0] != scores.shape[0]:
        raise DataError("y_true and scores must have equal length")
    if y_true.shape[0] == 0:
        raise DataError("empty inputs")
    uniques = np.unique(y_true)
    if not np.all(np.isin(uniques, [0, 1])):
        raise DataError(f"y_true must be binary 0/1, got values {uniques}")
    if not np.all(np.isfinite(scores)):
        raise DataError("scores contain NaN or infinity")
    return y_true.astype(np.int64), scores


def roc_curve(y_true, scores) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return ``(fpr, tpr, thresholds)`` for a binary classification score.

    Ties in ``scores`` are collapsed onto a single threshold, so the curve is
    a step function evaluated at distinct score values, beginning at (0, 0)
    and ending at (1, 1).
    """
    y_true, scores = _validate_binary(y_true, scores)
    n_pos = int(y_true.sum())
    n_neg = int(y_true.shape[0] - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise DataError("roc_curve requires both positive and negative samples")

    order = np.argsort(-scores, kind="mergesort")
    sorted_scores = scores[order]
    sorted_true = y_true[order]

    tp_cum = np.cumsum(sorted_true)
    fp_cum = np.cumsum(1 - sorted_true)

    # Keep only the last occurrence of each distinct score (threshold).
    distinct = np.r_[np.diff(sorted_scores) != 0, True]
    tp = tp_cum[distinct]
    fp = fp_cum[distinct]
    thresholds = sorted_scores[distinct]

    tpr = np.concatenate([[0.0], tp / n_pos])
    fpr = np.concatenate([[0.0], fp / n_neg])
    thresholds = np.concatenate([[np.inf], thresholds])
    return fpr, tpr, thresholds


def roc_auc(y_true, scores) -> float:
    """Area under the ROC curve via trapezoidal integration."""
    fpr, tpr, _ = roc_curve(y_true, scores)
    # numpy 2.0 renamed trapz -> trapezoid; support both.
    trapezoid = getattr(np, "trapezoid", getattr(np, "trapz", None))
    return float(trapezoid(tpr, fpr))
