"""Tests for the reference BCPNN kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.exceptions import DataError


class TestExpandMask:
    def test_expansion_shape_and_values(self):
        mask = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])  # F=3, H=2
        expanded = kernels.expand_mask(mask, [2, 2, 2], [3, 3])
        assert expanded.shape == (6, 6)
        # First input hypercolumn connects only to the first hidden HCU.
        assert np.all(expanded[:2, :3] == 1.0)
        assert np.all(expanded[:2, 3:] == 0.0)

    def test_ragged_input_sizes(self):
        mask = np.ones((2, 1))
        expanded = kernels.expand_mask(mask, [3, 1], [2])
        assert expanded.shape == (4, 2)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError):
            kernels.expand_mask(np.ones((2, 2)), [2], [2, 2])


class TestComputeSupport:
    def test_linear_identity(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        weights = np.array([[2.0, 0.0], [0.0, 3.0]])
        bias = np.array([1.0, -1.0])
        support = kernels.compute_support(x, weights, bias, None, bias_gain=1.0)
        assert np.allclose(support, [[3.0, -1.0], [1.0, 2.0]])

    def test_mask_zeroes_connections(self):
        x = np.ones((1, 2))
        weights = np.ones((2, 2))
        mask = np.array([[1.0, 0.0], [1.0, 0.0]])
        support = kernels.compute_support(x, weights, np.zeros(2), mask)
        assert np.allclose(support, [[2.0, 0.0]])

    def test_bias_gain_scaling(self):
        x = np.zeros((1, 2))
        support = kernels.compute_support(x, np.zeros((2, 3)), np.ones(3), None, bias_gain=2.5)
        assert np.allclose(support, 2.5)

    def test_dimension_checks(self):
        with pytest.raises(DataError):
            kernels.compute_support(np.ones((2, 3)), np.ones((2, 2)), np.zeros(2))
        with pytest.raises(DataError):
            kernels.compute_support(np.ones((2, 2)), np.ones((2, 2)), np.zeros(3))
        with pytest.raises(DataError):
            kernels.compute_support(np.ones((2, 2)), np.ones((2, 2)), np.zeros(2), np.ones((3, 2)))


class TestBatchOuterProduct:
    def test_matches_naive_computation(self):
        rng = np.random.default_rng(0)
        x = rng.random((16, 5))
        a = rng.random((16, 7))
        mean_x, mean_a, mean_outer = kernels.batch_outer_product(x, a)
        assert np.allclose(mean_x, x.mean(axis=0))
        assert np.allclose(mean_a, a.mean(axis=0))
        naive = np.mean([np.outer(x[i], a[i]) for i in range(16)], axis=0)
        assert np.allclose(mean_outer, naive)

    def test_empty_batch_rejected(self):
        with pytest.raises(DataError):
            kernels.batch_outer_product(np.empty((0, 2)), np.empty((0, 3)))

    def test_row_mismatch_rejected(self):
        with pytest.raises(DataError):
            kernels.batch_outer_product(np.ones((3, 2)), np.ones((4, 2)))


class TestTracesToWeights:
    def test_independent_traces_give_zero_weights(self):
        p_i = np.array([0.5, 0.5])
        p_j = np.array([0.25, 0.75])
        p_ij = np.outer(p_i, p_j)
        weights, bias = kernels.traces_to_weights(p_i, p_j, p_ij)
        assert np.allclose(weights, 0.0, atol=1e-12)
        assert np.allclose(bias, np.log(p_j))

    def test_positive_correlation_gives_positive_weight(self):
        p_i = np.array([0.5, 0.5])
        p_j = np.array([0.5, 0.5])
        p_ij = np.array([[0.4, 0.1], [0.1, 0.4]])
        weights, _ = kernels.traces_to_weights(p_i, p_j, p_ij)
        assert weights[0, 0] > 0 > weights[0, 1]

    def test_floor_prevents_infinities(self):
        weights, bias = kernels.traces_to_weights(
            np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.zeros((2, 2)), trace_floor=1e-9
        )
        assert np.all(np.isfinite(weights))
        assert np.all(np.isfinite(bias))

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            kernels.traces_to_weights(np.ones(2), np.ones(3), np.ones((2, 2)))


class TestMutualInformation:
    def test_independent_blocks_have_zero_score(self):
        p_i = np.array([0.5, 0.5, 0.3, 0.7])
        p_j = np.array([0.5, 0.5])
        p_ij = np.outer(p_i, p_j)
        scores = kernels.mutual_information_scores(p_i, p_j, p_ij, [2, 2], [2])
        assert scores.shape == (2, 1)
        assert np.allclose(scores, 0.0, atol=1e-12)

    def test_correlated_block_scores_higher(self):
        # Input hypercolumn 0 perfectly predicts the hidden unit; hypercolumn 1
        # is independent of it.
        p_i = np.array([0.5, 0.5, 0.5, 0.5])
        p_j = np.array([0.5, 0.5])
        p_ij = np.zeros((4, 2))
        p_ij[0, 0] = 0.5
        p_ij[1, 1] = 0.5
        p_ij[2:, :] = 0.25
        scores = kernels.mutual_information_scores(p_i, p_j, p_ij, [2, 2], [2])
        assert scores[0, 0] > scores[1, 0] + 0.1

    def test_size_validation(self):
        with pytest.raises(DataError):
            kernels.mutual_information_scores(
                np.ones(4) / 4, np.ones(2) / 2, np.ones((4, 2)) / 8, [3], [2]
            )


@given(
    n_in=st.integers(2, 8),
    n_hid=st.integers(2, 8),
    batch=st.integers(1, 32),
    seed=st.integers(0, 500),
)
@settings(max_examples=30, deadline=None)
def test_property_outer_product_consistency(n_in, n_hid, batch, seed):
    """Marginals of the joint statistic match the directly computed means."""
    rng = np.random.default_rng(seed)
    x = rng.random((batch, n_in))
    a = rng.random((batch, n_hid))
    mean_x, mean_a, mean_outer = kernels.batch_outer_product(x, a)
    # Summing the joint over hidden units weighted by 1 equals E[x * sum(a)]
    assert np.allclose(mean_outer.sum(axis=1), (x * a.sum(axis=1, keepdims=True)).mean(axis=0))
    assert np.allclose(mean_outer.sum(axis=0), (a * x.sum(axis=1, keepdims=True)).mean(axis=0))
