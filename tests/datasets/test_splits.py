"""Tests for train/test splitting and stratified K-fold."""

import numpy as np
import pytest

from repro.datasets.base import Dataset
from repro.datasets.splits import train_test_split
from repro.exceptions import DataError


def _dataset(n=120, seed=0, imbalance=0.7):
    rng = np.random.default_rng(seed)
    labels = (rng.random(n) < imbalance).astype(int)
    return Dataset(features=rng.normal(size=(n, 3)), labels=labels)


class TestTrainTestSplit:
    def test_partition_is_disjoint_and_complete(self):
        data = _dataset()
        train, test = train_test_split(data, 0.25, rng=np.random.default_rng(1))
        assert train.n_samples + test.n_samples == data.n_samples

    def test_stratification_preserves_ratio(self):
        data = _dataset(n=1000, imbalance=0.3, seed=2)
        train, test = train_test_split(data, 0.2, rng=np.random.default_rng(3), stratify=True)
        original = data.labels.mean()
        assert train.labels.mean() == pytest.approx(original, abs=0.03)
        assert test.labels.mean() == pytest.approx(original, abs=0.05)

    def test_unstratified_split_sizes(self):
        data = _dataset(n=100)
        train, test = train_test_split(data, 0.4, rng=np.random.default_rng(0), stratify=False)
        assert test.n_samples == 40

    def test_invalid_fraction(self):
        with pytest.raises(DataError):
            train_test_split(_dataset(), 0.0)
        with pytest.raises(DataError):
            train_test_split(_dataset(), 1.0)

    def test_deterministic_given_seed(self):
        data = _dataset()
        t1, _ = train_test_split(data, 0.3, rng=np.random.default_rng(7))
        t2, _ = train_test_split(data, 0.3, rng=np.random.default_rng(7))
        assert np.array_equal(t1.features, t2.features)
