"""Preprocessing used by the Higgs pipeline.

The paper (Section V) extracts a *balanced subset* of the training set,
computes per-feature **10-quantiles**, splits each feature's distribution
into ten roughly equal-population bins and encodes every feature as a
one-hot vector of length ten.  Each original feature therefore becomes one
*input hypercolumn* with ten units — exactly the modular probability layout
the BCPNN input layer expects.

:class:`QuantileOneHotEncoder` implements that transformation (fit on train,
apply to any split), :func:`balanced_subsample` the class balancing, and
:func:`standardize` the conventional z-scoring used by the baselines.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.datasets.base import Dataset
from repro.exceptions import DataError, NotFittedError
from repro.utils.rng import as_rng
from repro.utils.validation import check_array, check_positive_int

__all__ = ["QuantileOneHotEncoder", "balanced_subsample", "standardize", "Standardizer"]


class QuantileOneHotEncoder:
    """Per-feature quantile binning followed by one-hot encoding.

    Parameters
    ----------
    n_bins:
        Number of quantile bins per feature (the paper uses 10).

    Notes
    -----
    * The encoded matrix is ``uint8`` — one byte per input unit.  Training
      and inference widen it to float64 one ``(batch, n_units)`` tile at a
      time (``InputSpec.validate_batch``), never as a whole.
    * Bin edges are the interior quantiles of the *fit* data; values outside
      the fitted range fall into the first/last bin, so the transform is
      total.
    * Degenerate features (constant on the fit data) still produce ``n_bins``
      columns so the hypercolumn layout stays uniform; all mass goes to bin 0.
    """

    def __init__(self, n_bins: int = 10) -> None:
        self.n_bins = check_positive_int(n_bins, "n_bins", minimum=2)
        self._edges: Optional[np.ndarray] = None  # (n_features, n_bins - 1)
        self._n_features: Optional[int] = None

    # ----------------------------------------------------------------- fit
    def fit(self, features: np.ndarray) -> "QuantileOneHotEncoder":
        """Compute interior quantile edges for every feature column."""
        X = check_array(features, name="features", ndim=2)
        quantiles = np.linspace(0.0, 1.0, self.n_bins + 1)[1:-1]
        edges = np.quantile(X, quantiles, axis=0).T  # (n_features, n_bins-1)
        # Guarantee monotonically non-decreasing edges per feature.
        edges = np.maximum.accumulate(edges, axis=1)
        self._edges = np.ascontiguousarray(edges)
        self._n_features = X.shape[1]
        return self

    @property
    def is_fitted(self) -> bool:
        return self._edges is not None

    @property
    def n_features(self) -> int:
        if self._n_features is None:
            raise NotFittedError("encoder has not been fitted")
        return self._n_features

    @property
    def edges(self) -> np.ndarray:
        if self._edges is None:
            raise NotFittedError("encoder has not been fitted")
        return self._edges

    @property
    def hypercolumn_sizes(self) -> List[int]:
        """The BCPNN input layout: one hypercolumn of ``n_bins`` units per feature."""
        return [self.n_bins] * self.n_features

    @property
    def n_output_units(self) -> int:
        return self.n_features * self.n_bins

    # ----------------------------------------------------------- transform
    def bin_indices(self, features: np.ndarray) -> np.ndarray:
        """Return the bin index of every value, shape ``(n_samples, n_features)``."""
        if self._edges is None:
            raise NotFittedError("encoder must be fitted before transforming data")
        X = check_array(features, name="features", ndim=2)
        if X.shape[1] != self._n_features:
            raise DataError(
                f"expected {self._n_features} features, got {X.shape[1]}"
            )
        indices = np.empty(X.shape, dtype=np.int64)
        # Loop over features (tens), vectorised over samples (thousands).
        for f in range(X.shape[1]):
            indices[:, f] = np.searchsorted(self._edges[f], X[:, f], side="right")
        return indices

    def transform(self, features: np.ndarray) -> np.ndarray:
        """One-hot encode: ``(n_samples, n_features * n_bins)`` of ``uint8``."""
        indices = self.bin_indices(features)
        n_samples, n_features = indices.shape
        out = np.zeros((n_samples, n_features * self.n_bins), dtype=np.uint8)
        cols = indices + np.arange(n_features)[None, :] * self.n_bins
        rows = np.repeat(np.arange(n_samples), n_features)
        out[rows, cols.ravel()] = 1
        return out

    def fit_transform(self, features: np.ndarray) -> np.ndarray:
        return self.fit(features).transform(features)

    def inverse_transform_indices(self, encoded: np.ndarray) -> np.ndarray:
        """Recover bin indices from an encoded (or soft probability) matrix."""
        if self._edges is None:
            raise NotFittedError("encoder must be fitted")
        X = check_array(encoded, name="encoded", ndim=2, dtype=None)
        if X.shape[1] != self.n_output_units:
            raise DataError(
                f"expected {self.n_output_units} encoded columns, got {X.shape[1]}"
            )
        cube = X.reshape(X.shape[0], self.n_features, self.n_bins)
        return cube.argmax(axis=2)

    def bin_representative_values(self) -> np.ndarray:
        """A representative raw value per (feature, bin): the edge midpoints.

        For the outer bins the nearest interior edge is used.  Only meaningful
        for diagnostics / visualisation, not an exact inverse.
        """
        if self._edges is None:
            raise NotFittedError("encoder must be fitted")
        edges = self._edges
        reps = np.empty((self.n_features, self.n_bins), dtype=np.float64)
        reps[:, 0] = edges[:, 0]
        reps[:, -1] = edges[:, -1]
        for b in range(1, self.n_bins - 1):
            reps[:, b] = 0.5 * (edges[:, b - 1] + edges[:, b])
        return reps


class Standardizer:
    """Column-wise z-scoring with stored statistics (used by baselines)."""

    def __init__(self) -> None:
        self.mean_: Optional[np.ndarray] = None
        self.std_: Optional[np.ndarray] = None

    def fit(self, features: np.ndarray) -> "Standardizer":
        X = check_array(features, name="features", ndim=2)
        self.mean_ = X.mean(axis=0)
        std = X.std(axis=0)
        std[std < 1e-12] = 1.0
        self.std_ = std
        return self

    def transform(self, features: np.ndarray) -> np.ndarray:
        if self.mean_ is None or self.std_ is None:
            raise NotFittedError("Standardizer must be fitted first")
        X = check_array(features, name="features", ndim=2)
        if X.shape[1] != self.mean_.shape[0]:
            raise DataError("feature width changed between fit and transform")
        return (X - self.mean_) / self.std_

    def fit_transform(self, features: np.ndarray) -> np.ndarray:
        return self.fit(features).transform(features)


def standardize(train: np.ndarray, *others: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Convenience wrapper: fit a :class:`Standardizer` on ``train`` and apply everywhere."""
    scaler = Standardizer().fit(train)
    return tuple([scaler.transform(train)] + [scaler.transform(o) for o in others])


def balanced_subsample(dataset: Dataset, rng=None, max_per_class: Optional[int] = None) -> Dataset:
    """Return a class-balanced subset of ``dataset``.

    Every class is down-sampled to the size of the smallest class (or
    ``max_per_class`` if smaller).  Row order is shuffled.
    """
    rng = as_rng(rng)
    counts = dataset.class_counts()
    present = np.nonzero(counts)[0]
    if present.size < 2:
        raise DataError("balanced_subsample requires at least two classes present")
    target = int(counts[present].min())
    if max_per_class is not None:
        if max_per_class <= 0:
            raise DataError("max_per_class must be positive")
        target = min(target, int(max_per_class))
    chosen: List[np.ndarray] = []
    for cls in present:
        idx = np.nonzero(dataset.labels == cls)[0]
        picked = rng.choice(idx, size=target, replace=False)
        chosen.append(picked)
    indices = rng.permutation(np.concatenate(chosen))
    subset = dataset.subset(indices, name=f"{dataset.name}-balanced")
    subset.metadata["balanced"] = True
    subset.metadata["per_class"] = target
    return subset
