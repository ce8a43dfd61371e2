"""Train/test splitting and cross-validation fold generation."""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.datasets.base import Dataset
from repro.exceptions import DataError
from repro.utils.rng import as_rng

__all__ = ["train_test_split"]


def train_test_split(
    dataset: Dataset,
    test_fraction: float,
    rng=None,
    stratify: bool = True,
) -> Tuple[Dataset, Dataset]:
    """Split a dataset into train/test parts.

    Parameters
    ----------
    test_fraction:
        Fraction of samples assigned to the test part (0 < f < 1).
    stratify:
        Preserve per-class proportions (recommended; the paper's balanced
        subset stays balanced across splits this way).
    """
    if not 0.0 < test_fraction < 1.0:
        raise DataError(f"test_fraction must be in (0, 1), got {test_fraction}")
    rng = as_rng(rng)
    n = dataset.n_samples
    if stratify:
        test_idx: List[np.ndarray] = []
        train_idx: List[np.ndarray] = []
        for cls in range(dataset.n_classes):
            cls_idx = np.nonzero(dataset.labels == cls)[0]
            if cls_idx.size == 0:
                continue
            cls_idx = rng.permutation(cls_idx)
            n_test = int(round(cls_idx.size * test_fraction))
            if cls_idx.size > 1:
                n_test = min(max(n_test, 1), cls_idx.size - 1)
            else:
                n_test = 0
            test_idx.append(cls_idx[:n_test])
            train_idx.append(cls_idx[n_test:])
        test_indices = (
            rng.permutation(np.concatenate(test_idx)) if test_idx else np.empty(0, np.int64)
        )
        train_indices = rng.permutation(np.concatenate(train_idx))
    else:
        order = rng.permutation(n)
        n_test = int(round(n * test_fraction))
        n_test = min(max(n_test, 1), n - 1)
        test_indices = order[:n_test]
        train_indices = order[n_test:]
    if train_indices.size == 0 or test_indices.size == 0:
        raise DataError("split produced an empty partition; adjust test_fraction")
    return (
        dataset.subset(train_indices, name=f"{dataset.name}-train"),
        dataset.subset(test_indices, name=f"{dataset.name}-test"),
    )
