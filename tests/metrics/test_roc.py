"""Tests for ROC/AUC, including the property that both AUC formulations agree."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DataError
from repro.metrics import roc_auc, roc_curve


def rank_auc(y_true, scores) -> float:
    """AUC via the Mann-Whitney U statistic (average tie ranks): the oracle
    :func:`roc_auc`'s trapezoidal integral is checked against."""
    y_true, scores = np.asarray(y_true), np.asarray(scores, dtype=np.float64)
    n_pos = int(y_true.sum())
    n_neg = int(y_true.shape[0] - n_pos)
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty_like(order, dtype=np.float64)
    ranks[order] = np.arange(1, len(scores) + 1)
    # Average ranks over ties.
    sorted_scores = scores[order]
    i = 0
    while i < len(sorted_scores):
        j = i
        while j + 1 < len(sorted_scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        if j > i:
            ranks[order[i : j + 1]] = 0.5 * (i + 1 + j + 1)
        i = j + 1
    u_stat = ranks[y_true == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u_stat / (n_pos * n_neg))


class TestRocCurve:
    def test_perfect_separation(self):
        y = [0, 0, 1, 1]
        scores = [0.1, 0.2, 0.8, 0.9]
        fpr, tpr, thresholds = roc_curve(y, scores)
        assert fpr[0] == 0.0 and tpr[0] == 0.0
        assert fpr[-1] == 1.0 and tpr[-1] == 1.0
        assert roc_auc(y, scores) == pytest.approx(1.0)

    def test_reverse_separation(self):
        y = [0, 0, 1, 1]
        scores = [0.9, 0.8, 0.2, 0.1]
        assert roc_auc(y, scores) == pytest.approx(0.0)

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 2, size=4000)
        scores = rng.random(4000)
        assert roc_auc(y, scores) == pytest.approx(0.5, abs=0.05)

    def test_tied_scores_handled(self):
        y = [0, 1, 0, 1]
        scores = [0.5, 0.5, 0.5, 0.5]
        assert roc_auc(y, scores) == pytest.approx(0.5)
        assert rank_auc(y, scores) == pytest.approx(0.5)

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            roc_curve([1, 1, 1], [0.1, 0.2, 0.3])

    def test_non_binary_rejected(self):
        with pytest.raises(DataError):
            roc_curve([0, 1, 2], [0.1, 0.2, 0.3])

    def test_nan_scores_rejected(self):
        with pytest.raises(DataError):
            roc_curve([0, 1], [np.nan, 0.2])

    def test_monotone_curve(self):
        rng = np.random.default_rng(3)
        y = rng.integers(0, 2, size=200)
        scores = rng.normal(size=200) + y
        fpr, tpr, _ = roc_curve(y, scores)
        assert np.all(np.diff(fpr) >= 0)
        assert np.all(np.diff(tpr) >= 0)


@given(
    n=st.integers(10, 120),
    seed=st.integers(0, 10_000),
    ties=st.booleans(),
)
@settings(max_examples=50, deadline=None)
def test_property_trapezoid_auc_equals_rank_auc(n, seed, ties):
    """The trapezoidal ROC integral must equal the Mann-Whitney formulation."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n)
    # Ensure both classes are present.
    y[0], y[1] = 0, 1
    scores = rng.normal(size=n)
    if ties:
        scores = np.round(scores, 1)  # introduce ties
    assert roc_auc(y, scores) == pytest.approx(rank_auc(y, scores), abs=1e-9)


@given(n=st.integers(10, 80), seed=st.integers(0, 10_000), shift=st.floats(0.1, 5.0))
@settings(max_examples=30, deadline=None)
def test_property_auc_improves_with_separation(n, seed, shift):
    """Adding class-dependent shift to the scores must not lower the AUC."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n)
    y[0], y[1] = 0, 1
    base = rng.normal(size=n)
    assert roc_auc(y, base + shift * y) >= roc_auc(y, base) - 1e-9
