"""Tests for probability traces (including hypothesis invariants)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.backend import get_backend
from repro.core import ProbabilityTraces
from repro.engine import ExecutionPlan, LayerEngine
from repro.exceptions import DataError
from repro.utils.arrays import blockwise_softmax, one_hot


def _one_hot_batch(rng, n, sizes):
    x = np.zeros((n, int(np.sum(sizes))))
    offset = 0
    for size in sizes:
        winners = rng.integers(0, size, size=n)
        x[np.arange(n), offset + winners] = 1.0
        offset += size
    return x


class TestInitialisation:
    def test_uniform_prior(self):
        traces = ProbabilityTraces([3, 3], [4])
        assert np.allclose(traces.p_i, 1 / 3)
        assert np.allclose(traces.p_j, 1 / 4)
        assert np.allclose(traces.p_ij, np.outer(traces.p_i, traces.p_j))
        assert traces.check_consistency()

    def test_dimensions(self):
        traces = ProbabilityTraces([10] * 28, [100, 100])
        assert traces.n_input == 280
        assert traces.n_hidden == 200
        assert traces.p_ij.shape == (280, 200)

    def test_invalid_sizes(self):
        with pytest.raises(Exception):
            ProbabilityTraces([0, 3], [2])
        with pytest.raises(DataError):
            ProbabilityTraces([2], [2], initial_counts=0)


class TestUpdate:
    def test_update_moves_toward_batch_statistics(self):
        rng = np.random.default_rng(0)
        traces = ProbabilityTraces([2, 2], [3])
        x = _one_hot_batch(rng, 50, [2, 2])
        a = blockwise_softmax(rng.normal(size=(50, 3)), [3])
        before = traces.p_ij.copy()
        traces.update(x, a, taupdt=0.5)
        target = (x.T @ a) / 50
        assert np.all(np.abs(traces.p_ij - target) <= np.abs(before - target) + 1e-12)
        assert traces.updates_seen == 1

    def test_taupdt_one_replaces_traces(self):
        rng = np.random.default_rng(1)
        traces = ProbabilityTraces([2], [2])
        x = _one_hot_batch(rng, 20, [2])
        a = blockwise_softmax(rng.normal(size=(20, 2)), [2])
        traces.update(x, a, taupdt=1.0)
        assert np.allclose(traces.p_i, x.mean(axis=0))
        assert np.allclose(traces.p_j, a.mean(axis=0))

    def test_invalid_taupdt(self):
        traces = ProbabilityTraces([2], [2])
        with pytest.raises(DataError):
            traces.update(np.ones((2, 2)) / 2, np.ones((2, 2)) / 2, taupdt=0.0)

    def test_width_mismatch(self):
        traces = ProbabilityTraces([2], [2])
        with pytest.raises(DataError):
            traces.update(np.ones((2, 3)) / 3, np.ones((2, 2)) / 2, taupdt=0.1)

    def test_engine_apply_means_equivalent_to_update(self):
        """The data-parallel trace update (reduced means through the
        engine) is the serial learning-rule step, and counts as one."""
        rng = np.random.default_rng(2)
        x = _one_hot_batch(rng, 30, [3, 3])
        a = blockwise_softmax(rng.normal(size=(30, 4)), [4])
        t1 = ProbabilityTraces([3, 3], [4])
        t2 = ProbabilityTraces([3, 3], [4])
        t1.update(x, a, 0.2)
        engine = LayerEngine(get_backend("numpy"), ExecutionPlan.for_traces(t2, 30))
        engine.apply_means(t2, x.mean(axis=0), a.mean(axis=0), (x.T @ a) / 30, 0.2)
        assert np.allclose(t1.p_i, t2.p_i)
        assert np.allclose(t1.p_j, t2.p_j)
        assert np.allclose(t1.p_ij, t2.p_ij)
        assert t2.updates_seen == 1
        assert engine.weights_stale and engine.should_refresh_weights()

    def test_engine_apply_means_books_what_update_traces_books(self):
        """Given the same batch means, the reduced-means entry updates the
        traces and the stale-weights account exactly as the engine's own
        statistics dispatch does, refresh decision included."""
        rng = np.random.default_rng(4)
        plan = ExecutionPlan.for_traces(ProbabilityTraces([3, 3], [4]), 30)
        engines, traces = [], []
        for _ in range(2):
            engines.append(LayerEngine(get_backend("numpy"), plan, weight_refresh_tol=0.05))
            engines[-1].note_weights_refreshed()
            traces.append(ProbabilityTraces([3, 3], [4]))
        decisions = []
        for _ in range(20):
            x = _one_hot_batch(rng, 30, [3, 3])
            a = blockwise_softmax(rng.normal(size=(30, 4)), [4])
            engines[0].update_traces(x, a, traces[0], 0.1)
            engines[1].apply_means(traces[1], *kernels.batch_outer_product(x, a), 0.1)
            assert np.array_equal(traces[0].p_ij, traces[1].p_ij)
            assert engines[0]._staleness == engines[1]._staleness
            decisions.append(engines[1].should_refresh_weights())
            assert engines[0].should_refresh_weights() == decisions[-1]
            if decisions[-1]:
                for engine in engines:
                    engine.note_weights_refreshed()
        assert any(decisions) and not all(decisions)

    def test_engine_apply_means_validates_shapes(self):
        traces = ProbabilityTraces([2], [2])
        engine = LayerEngine(get_backend("numpy"), ExecutionPlan.for_traces(traces, 4))
        with pytest.raises(DataError):
            engine.apply_means(traces, np.ones(3), np.ones(2), np.ones((2, 2)), 0.1)
        with pytest.raises(DataError):
            engine.apply_means(traces, np.ones(2), np.ones(2), np.ones((2, 2)), 0.0)


class TestWeightsAndMI:
    def test_weights_shape(self):
        traces = ProbabilityTraces([2, 2], [3])
        weights, bias = traces.to_weights()
        assert weights.shape == (4, 3)
        assert bias.shape == (3,)

    def test_mutual_information_nonnegative_after_training(self):
        rng = np.random.default_rng(3)
        traces = ProbabilityTraces([2, 2, 2], [4])
        for _ in range(30):
            x = _one_hot_batch(rng, 40, [2, 2, 2])
            a = one_hot(rng.integers(0, 4, 40), 4)
            traces.update(x, a, 0.05)
        scores = traces.mutual_information()
        assert scores.shape == (3, 1)
        assert np.all(scores > -1e-9)


class TestMergeAndCopy:
    def test_copy_is_independent(self):
        traces = ProbabilityTraces([2], [2])
        clone = traces.copy()
        clone.p_ij[0, 0] = 0.9
        assert traces.p_ij[0, 0] != 0.9

    def test_memory_bytes_positive(self):
        assert ProbabilityTraces([4], [4]).memory_bytes() > 0


@given(
    sizes=st.lists(st.integers(2, 4), min_size=1, max_size=3),
    hidden=st.integers(2, 5),
    steps=st.integers(1, 10),
    taupdt=st.floats(0.01, 1.0),
    seed=st.integers(0, 500),
)
@settings(max_examples=30, deadline=None)
def test_property_traces_remain_valid_distributions(sizes, hidden, steps, taupdt, seed):
    """After any number of updates with one-hot inputs and softmax hidden
    activity, the traces remain per-hypercolumn probability distributions."""
    rng = np.random.default_rng(seed)
    traces = ProbabilityTraces(sizes, [hidden])
    for _ in range(steps):
        x = _one_hot_batch(rng, 16, sizes)
        a = blockwise_softmax(rng.normal(size=(16, hidden)), [hidden])
        traces.update(x, a, taupdt)
    assert traces.check_consistency()
    # Joint marginalised over hidden equals input marginal (both are means of
    # x because each hidden hypercolumn's activity sums to one).
    assert np.allclose(traces.p_ij.sum(axis=1), traces.p_i, atol=1e-9)
    assert np.all(traces.p_i >= 0) and np.all(traces.p_j >= 0)
