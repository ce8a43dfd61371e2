"""Dataset containers shared by loaders, preprocessing and the experiment harness."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.exceptions import DataError
from repro.utils.validation import check_array, check_labels

__all__ = ["Dataset", "DatasetSplits"]


@dataclass
class Dataset:
    """A tabular (or flattened-image) dataset with integer class labels.

    Attributes
    ----------
    features:
        ``(n_samples, n_features)`` float matrix.
    labels:
        ``(n_samples,)`` integer class labels.
    feature_names:
        Optional human-readable column names.
    name:
        Dataset identifier used in logs and reports.
    metadata:
        Free-form provenance information (generator parameters, file path...).
    """

    features: np.ndarray
    labels: np.ndarray
    feature_names: Optional[List[str]] = None
    name: str = "dataset"
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.features = check_array(self.features, name="features", ndim=2)
        self.labels = check_labels(self.labels, name="labels")
        if self.features.shape[0] != self.labels.shape[0]:
            raise DataError(
                f"features ({self.features.shape[0]} rows) and labels "
                f"({self.labels.shape[0]}) are misaligned"
            )
        if self.feature_names is not None:
            self.feature_names = [str(n) for n in self.feature_names]
            if len(self.feature_names) != self.features.shape[1]:
                raise DataError(
                    f"{len(self.feature_names)} feature names for "
                    f"{self.features.shape[1]} columns"
                )

    # ------------------------------------------------------------------ API
    @property
    def n_samples(self) -> int:
        return int(self.features.shape[0])

    @property
    def n_features(self) -> int:
        return int(self.features.shape[1])

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1 if self.labels.size else 0

    def class_counts(self) -> np.ndarray:
        """Number of samples per class label."""
        return np.bincount(self.labels, minlength=self.n_classes)

    def subset(self, indices: Sequence[int], name: Optional[str] = None) -> "Dataset":
        """Return a new dataset restricted to ``indices`` (copying the rows)."""
        idx = np.asarray(indices, dtype=np.int64)
        if idx.ndim != 1:
            raise DataError("indices must be one-dimensional")
        if idx.size and (idx.min() < 0 or idx.max() >= self.n_samples):
            raise DataError("indices out of range")
        return Dataset(
            features=self.features[idx].copy(),
            labels=self.labels[idx].copy(),
            feature_names=list(self.feature_names) if self.feature_names else None,
            name=name or self.name,
            metadata=dict(self.metadata, parent=self.name, subset_size=int(idx.size)),
        )


@dataclass
class DatasetSplits:
    """Train / validation / test triple produced by the split helpers."""

    train: Dataset
    validation: Optional[Dataset]
    test: Dataset

    def __post_init__(self) -> None:
        widths = {self.train.n_features, self.test.n_features}
        if self.validation is not None:
            widths.add(self.validation.n_features)
        if len(widths) != 1:
            raise DataError("all splits must share the same number of features")
