"""Tests for the reference NumPy backend."""

import numpy as np
import pytest

from repro import kernels
from repro.backend import NumpyBackend
from repro.exceptions import BackendError


@pytest.fixture()
def problem():
    rng = np.random.default_rng(0)
    x = rng.random((32, 12))
    weights = rng.normal(size=(12, 8))
    bias = rng.normal(size=8)
    mask = (rng.random((12, 8)) > 0.3).astype(float)
    return x, weights, bias, mask, [4, 4]


class TestNumpyBackend:
    def test_forward_matches_kernels(self, problem):
        x, weights, bias, mask, sizes = problem
        backend = NumpyBackend()
        expected = kernels.hidden_activations(
            kernels.compute_support(x, weights, bias, mask), sizes
        )
        assert np.allclose(backend.forward(x, weights, bias, mask, sizes), expected)

    def test_statistics_match_kernels(self, problem):
        x, weights, bias, mask, sizes = problem
        backend = NumpyBackend()
        a = backend.forward(x, weights, bias, mask, sizes)
        expected = kernels.batch_outer_product(x, a)
        result = backend.batch_statistics(x, a)
        for got, want in zip(result, expected):
            assert np.allclose(got, want)

    def test_traces_to_weights_delegates(self):
        backend = NumpyBackend()
        p_i = np.array([0.4, 0.6])
        p_j = np.array([0.5, 0.5])
        p_ij = np.outer(p_i, p_j)
        weights, bias = backend.traces_to_weights(p_i, p_j, p_ij)
        assert np.allclose(weights, 0.0, atol=1e-12)
        assert np.allclose(bias, np.log(p_j))

    def test_statistics_counters(self, problem):
        x, weights, bias, mask, sizes = problem
        backend = NumpyBackend()
        a = backend.forward(x, weights, bias, mask, sizes)
        backend.batch_statistics(x, a)
        backend.traces_to_weights(np.ones(12) / 12, np.ones(8) / 8, np.ones((12, 8)) / 96)
        assert backend.stats.forward_calls == 1
        assert backend.stats.statistics_calls == 1
        assert backend.stats.weight_updates == 1
        assert backend.stats.elements_processed > 0

    def test_non_2d_input_rejected(self):
        backend = NumpyBackend()
        with pytest.raises(BackendError):
            backend.forward(np.ones(3), np.ones((3, 2)), np.zeros(2), None, [2])
