"""Tests for quantile one-hot encoding, standardisation and balancing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import QuantileOneHotEncoder, balanced_subsample
from repro.datasets.base import Dataset
from repro.datasets.preprocessing import Standardizer
from repro.exceptions import DataError, NotFittedError


def _random_table(n=400, d=5, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, d)) * rng.uniform(0.5, 3.0, size=d) + rng.normal(0, 5, size=d)


class TestQuantileOneHotEncoder:
    def test_output_shape_and_one_hot(self):
        X = _random_table()
        encoder = QuantileOneHotEncoder(n_bins=10).fit(X)
        encoded = encoder.transform(X)
        assert encoded.shape == (400, 50)
        blocks = encoded.reshape(400, 5, 10)
        assert np.array_equal(blocks.sum(axis=2), np.ones((400, 5)))

    def test_bins_roughly_balanced_on_fit_data(self):
        X = _random_table(n=2000, d=3, seed=1)
        encoder = QuantileOneHotEncoder(n_bins=10).fit(X)
        indices = encoder.bin_indices(X)
        for f in range(3):
            counts = np.bincount(indices[:, f], minlength=10)
            assert counts.min() > 0.5 * 200
            assert counts.max() < 1.5 * 200

    def test_out_of_range_values_clamp_to_edge_bins(self):
        X = _random_table(n=200, d=2, seed=2)
        encoder = QuantileOneHotEncoder(n_bins=10).fit(X)
        extremes = np.array([[-1e9, 1e9]])
        idx = encoder.bin_indices(extremes)
        assert idx[0, 0] == 0
        assert idx[0, 1] == 9

    def test_constant_feature_still_produces_bins(self):
        X = np.column_stack([np.ones(100), np.arange(100.0)])
        encoder = QuantileOneHotEncoder(n_bins=10).fit(X)
        encoded = encoder.transform(X)
        assert encoded.shape == (100, 20)
        # All mass of the constant feature goes to a single bin.
        assert np.all(encoded[:, :10].sum(axis=0)[encoded[:, :10].sum(axis=0) > 0] == 100)

    def test_transform_before_fit_rejected(self):
        with pytest.raises(NotFittedError):
            QuantileOneHotEncoder().transform(np.ones((2, 2)))

    def test_width_mismatch_rejected(self):
        encoder = QuantileOneHotEncoder().fit(_random_table(d=4))
        with pytest.raises(DataError):
            encoder.transform(np.ones((3, 5)))

    def test_hypercolumn_layout(self):
        encoder = QuantileOneHotEncoder(n_bins=10).fit(_random_table(d=28))
        assert encoder.hypercolumn_sizes == [10] * 28

    def test_encoding_is_one_byte_per_unit_and_not_an_option(self):
        X = _random_table()
        encoded = QuantileOneHotEncoder(n_bins=10).fit(X).transform(X)
        assert encoded.dtype == np.uint8
        assert encoded.nbytes == 400 * 50
        assert set(np.unique(encoded)) == {0, 1}
        with pytest.raises(TypeError):
            QuantileOneHotEncoder(n_bins=10, dtype=np.float64)

    def test_minimum_bins_validated(self):
        with pytest.raises(Exception):
            QuantileOneHotEncoder(n_bins=1)


class TestStandardizer:
    def test_zero_mean_unit_std(self):
        X = _random_table(seed=3)
        Z = Standardizer().fit(X).transform(X)
        assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(Z.std(axis=0), 1.0, atol=1e-9)

    def test_constant_column_safe(self):
        X = np.column_stack([np.ones(50), np.arange(50.0)])
        Z = Standardizer().fit(X).transform(X)
        assert np.all(np.isfinite(Z))

    def test_transform_before_fit(self):
        with pytest.raises(NotFittedError):
            Standardizer().transform(np.ones((2, 2)))


class TestBalancedSubsample:
    def test_balances_classes(self):
        rng = np.random.default_rng(0)
        features = rng.normal(size=(300, 4))
        labels = np.array([0] * 250 + [1] * 50)
        dataset = Dataset(features=features, labels=labels)
        balanced = balanced_subsample(dataset, rng=rng)
        counts = balanced.class_counts()
        assert counts[0] == counts[1] == 50

    def test_max_per_class(self):
        rng = np.random.default_rng(1)
        dataset = Dataset(features=rng.normal(size=(200, 3)), labels=rng.integers(0, 2, 200))
        balanced = balanced_subsample(dataset, rng=rng, max_per_class=30)
        assert balanced.n_samples == 60

    def test_single_class_rejected(self):
        dataset = Dataset(features=np.ones((10, 2)), labels=np.zeros(10, dtype=int))
        with pytest.raises(DataError):
            balanced_subsample(dataset)


@given(
    n_bins=st.integers(2, 12),
    n_features=st.integers(1, 6),
    n_samples=st.integers(20, 200),
    seed=st.integers(0, 1000),
)
@settings(max_examples=30, deadline=None)
def test_property_encoder_always_one_hot(n_bins, n_features, n_samples, seed):
    """Every encoded row is exactly one-hot per feature, for any data."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_samples, n_features)) * 10
    encoder = QuantileOneHotEncoder(n_bins=n_bins).fit(X)
    other = rng.normal(size=(50, n_features)) * 100  # includes out-of-range values
    encoded = encoder.transform(other)
    blocks = encoded.reshape(50, n_features, n_bins)
    assert np.array_equal(blocks.sum(axis=2), np.ones((50, n_features)))
    assert set(np.unique(encoded)) <= {0.0, 1.0}
