"""Regression trees built from scratch.

:class:`RegressionTree` is a CART-style regression tree on a squared-error
criterion, used as the weak learner inside
:class:`repro.baselines.boosting.GradientBoostingBaseline`.

The split search is vectorised per feature: candidate thresholds come from
quantiles of the feature values at the node, and the split quality for all
candidates of one feature is evaluated with cumulative sums rather than a
Python loop over thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = ["RegressionTree"]


@dataclass
class _Node:
    """A tree node; leaves carry ``value`` and internal nodes a split."""

    value: np.ndarray
    feature: int = -1
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class RegressionTree:
    """CART regression tree minimising squared error.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (a stump has depth 1).
    min_samples_leaf:
        Minimum samples required in each child to accept a split.
    max_thresholds:
        Number of candidate thresholds (feature quantiles) per feature.
    """

    def __init__(
        self, max_depth: int = 3, min_samples_leaf: int = 10, max_thresholds: int = 16
    ) -> None:
        if max_depth < 1:
            raise ConfigurationError("max_depth must be >= 1")
        if min_samples_leaf < 1:
            raise ConfigurationError("min_samples_leaf must be >= 1")
        if max_thresholds < 1:
            raise ConfigurationError("max_thresholds must be >= 1")
        self.max_depth = int(max_depth)
        self.min_samples_leaf = int(min_samples_leaf)
        self.max_thresholds = int(max_thresholds)
        self.root_: Optional[_Node] = None
        self.n_nodes_ = 0

    # ----------------------------------------------------------------- fit
    def fit(self, X: np.ndarray, targets: np.ndarray) -> "RegressionTree":
        X = np.asarray(X, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        if targets.ndim == 1:
            targets = targets[:, None]
        if X.shape[0] != targets.shape[0]:
            raise ConfigurationError("X and targets are misaligned")
        self.n_nodes_ = 0
        self.root_ = self._build(X, targets, depth=0)
        return self

    def _build(self, X: np.ndarray, targets: np.ndarray, depth: int) -> _Node:
        self.n_nodes_ += 1
        node_value = targets.mean(axis=0)
        if depth >= self.max_depth or X.shape[0] < 2 * self.min_samples_leaf:
            return _Node(value=node_value)
        feature, threshold, gain = self._best_split(X, targets)
        if feature < 0 or gain <= 1e-12:
            return _Node(value=node_value)
        mask = X[:, feature] <= threshold
        left = self._build(X[mask], targets[mask], depth + 1)
        right = self._build(X[~mask], targets[~mask], depth + 1)
        return _Node(value=node_value, feature=feature, threshold=threshold, left=left, right=right)

    def _best_split(self, X: np.ndarray, targets: np.ndarray) -> Tuple[int, float, float]:
        n, d = X.shape
        total_sum = targets.sum(axis=0)
        total_sq = float(np.sum(targets**2))
        parent_sse = total_sq - float(np.sum(total_sum**2)) / n
        best = (-1, 0.0, 0.0)
        for feature in range(d):
            column = X[:, feature]
            order = np.argsort(column, kind="mergesort")
            sorted_vals = column[order]
            sorted_targets = targets[order]
            csum = np.cumsum(sorted_targets, axis=0)
            csq = np.cumsum(np.sum(sorted_targets**2, axis=1))
            # Candidate split positions: after index i (1-based counts).
            if n > self.max_thresholds:
                positions = np.unique(
                    np.linspace(
                        self.min_samples_leaf, n - self.min_samples_leaf, self.max_thresholds
                    ).astype(int)
                )
            else:
                positions = np.arange(self.min_samples_leaf, n - self.min_samples_leaf + 1)
            positions = positions[
                (positions >= self.min_samples_leaf) & (positions <= n - self.min_samples_leaf)
            ]
            if positions.size == 0:
                continue
            # Skip positions where the value does not change (no valid threshold).
            valid = sorted_vals[positions - 1] < sorted_vals[np.minimum(positions, n - 1)]
            positions = positions[valid]
            if positions.size == 0:
                continue
            left_n = positions.astype(np.float64)
            right_n = n - left_n
            left_sum = csum[positions - 1]
            right_sum = total_sum[None, :] - left_sum
            left_sq = csq[positions - 1]
            right_sq = total_sq - left_sq
            left_sse = left_sq - np.sum(left_sum**2, axis=1) / left_n
            right_sse = right_sq - np.sum(right_sum**2, axis=1) / right_n
            gains = parent_sse - (left_sse + right_sse)
            best_idx = int(np.argmax(gains))
            if gains[best_idx] > best[2]:
                pos = positions[best_idx]
                threshold = 0.5 * (sorted_vals[pos - 1] + sorted_vals[min(pos, n - 1)])
                best = (feature, float(threshold), float(gains[best_idx]))
        return best

    # ------------------------------------------------------------- predict
    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.root_ is None:
            raise ConfigurationError("tree has not been fitted")
        X = np.asarray(X, dtype=np.float64)
        out = np.empty((X.shape[0], self.root_.value.shape[0]), dtype=np.float64)
        # Iterative traversal grouping rows per node keeps this vectorised.
        stack: List[Tuple[_Node, np.ndarray]] = [(self.root_, np.arange(X.shape[0]))]
        while stack:
            node, rows = stack.pop()
            if rows.size == 0:
                continue
            if node.is_leaf:
                out[rows] = node.value
                continue
            mask = X[rows, node.feature] <= node.threshold
            stack.append((node.left, rows[mask]))
            stack.append((node.right, rows[~mask]))
        return out
