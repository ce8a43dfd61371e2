"""Tests for the Dataset/DatasetSplits containers."""

import numpy as np
import pytest

from repro.datasets.base import Dataset, DatasetSplits
from repro.exceptions import DataError


def _dataset(n=30, d=4, n_classes=3, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(
        features=rng.normal(size=(n, d)),
        labels=rng.integers(0, n_classes, size=n),
        feature_names=[f"f{i}" for i in range(d)],
        name="toy",
    )


class TestDataset:
    def test_basic_properties(self):
        data = _dataset()
        assert data.n_samples == 30
        assert data.n_features == 4
        assert data.n_classes == 3
        assert data.class_counts().sum() == 30

    def test_misaligned_rejected(self):
        with pytest.raises(DataError):
            Dataset(features=np.ones((5, 2)), labels=np.zeros(4, dtype=int))

    def test_wrong_feature_names_rejected(self):
        with pytest.raises(DataError):
            Dataset(features=np.ones((5, 2)), labels=np.zeros(5, dtype=int), feature_names=["a"])

    def test_subset_copies_and_records_provenance(self):
        data = _dataset()
        sub = data.subset([0, 2, 4])
        assert sub.n_samples == 3
        sub.features[0, 0] = 1e9
        assert data.features[0, 0] != 1e9
        assert sub.metadata["parent"] == "toy"

    def test_subset_out_of_range(self):
        with pytest.raises(DataError):
            _dataset().subset([100])


class TestDatasetSplits:
    def test_mismatched_width_rejected(self):
        a = _dataset(d=4)
        b = Dataset(features=np.ones((5, 3)), labels=np.zeros(5, dtype=int))
        with pytest.raises(DataError):
            DatasetSplits(train=a, validation=None, test=b)

    def test_sizes(self):
        a, b = _dataset(n=20), _dataset(n=10, seed=1)
        splits = DatasetSplits(train=a, validation=None, test=b)
        assert (splits.train.n_samples, splits.validation, splits.test.n_samples) == (20, None, 10)
