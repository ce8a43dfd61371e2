"""Tests for repro.utils.arrays (including hypothesis property tests)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.exceptions import DataError
from repro.utils.arrays import (
    block_offsets,
    blockwise_softmax,
    one_hot,
    row_softmax,
    split_into_chunks,
    stable_log,
)


class TestOneHot:
    def test_round_trip(self):
        labels = np.array([0, 2, 1, 2])
        encoded = one_hot(labels, 3)
        assert np.array_equal(encoded.argmax(axis=1), labels)
        assert np.array_equal(encoded.sum(axis=1), np.ones(4))

    def test_out_of_range_rejected(self):
        with pytest.raises(DataError):
            one_hot(np.array([0, 3]), 3)

    def test_empty_labels(self):
        assert one_hot(np.array([], dtype=int), 4).shape == (0, 4)

    def test_2d_rejected(self):
        with pytest.raises(DataError):
            one_hot(np.zeros((2, 2), dtype=int), 2)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        logits = np.random.default_rng(0).normal(size=(5, 7))
        probs = row_softmax(logits)
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_shift_invariance(self):
        logits = np.random.default_rng(1).normal(size=(3, 4))
        assert np.allclose(row_softmax(logits), row_softmax(logits + 100.0))

    def test_extreme_values_stable(self):
        probs = row_softmax(np.array([[1e4, -1e4, 0.0]]))
        assert np.all(np.isfinite(probs))
        assert probs[0, 0] == pytest.approx(1.0)

    def test_out_parameter(self):
        logits = np.random.default_rng(2).normal(size=(2, 3))
        out = np.empty_like(logits)
        returned = row_softmax(logits, out=out)
        assert returned is out
        assert np.allclose(out.sum(axis=1), 1.0)


class TestBlockwise:
    def test_blockwise_softmax_uniform_blocks(self):
        support = np.random.default_rng(0).normal(size=(6, 8))
        probs = blockwise_softmax(support, [4, 4])
        assert np.allclose(probs[:, :4].sum(axis=1), 1.0)
        assert np.allclose(probs[:, 4:].sum(axis=1), 1.0)

    def test_blockwise_softmax_ragged_blocks(self):
        support = np.random.default_rng(0).normal(size=(5, 7))
        probs = blockwise_softmax(support, [3, 4])
        assert np.allclose(probs[:, :3].sum(axis=1), 1.0)
        assert np.allclose(probs[:, 3:].sum(axis=1), 1.0)

    def test_blockwise_softmax_matches_row_softmax_single_block(self):
        support = np.random.default_rng(3).normal(size=(4, 5))
        assert np.allclose(blockwise_softmax(support, [5]), row_softmax(support))

    def test_width_mismatch_rejected(self):
        with pytest.raises(DataError):
            blockwise_softmax(np.ones((2, 5)), [2, 2])

    def test_block_offsets(self):
        assert np.array_equal(block_offsets([2, 3, 1]), [0, 2, 5, 6])
        with pytest.raises(DataError):
            block_offsets([])
        with pytest.raises(DataError):
            block_offsets([2, 0])


class TestMisc:
    def test_stable_log_floors(self):
        out = stable_log(np.array([0.0, 1.0]), floor=1e-6)
        assert out[0] == pytest.approx(np.log(1e-6))
        assert out[1] == pytest.approx(0.0)

    def test_split_into_chunks_balanced(self):
        chunks = split_into_chunks(10, 3)
        sizes = [hi - lo for lo, hi in chunks]
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1

    def test_split_into_chunks_more_chunks_than_items(self):
        chunks = split_into_chunks(2, 5)
        assert len(chunks) == 5
        assert sum(hi - lo for lo, hi in chunks) == 2


# ---------------------------------------------------------------- properties
@given(
    logits=hnp.arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(1, 6), st.integers(2, 9)),
        elements=st.floats(-50, 50, allow_nan=False),
    )
)
@settings(max_examples=40, deadline=None)
def test_property_row_softmax_is_distribution(logits):
    probs = row_softmax(logits)
    assert np.all(probs >= 0)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)


@given(
    n_blocks=st.integers(1, 4),
    block_size=st.integers(1, 5),
    rows=st.integers(1, 5),
    seed=st.integers(0, 1000),
)
@settings(max_examples=40, deadline=None)
def test_property_blockwise_softmax_block_sums(n_blocks, block_size, rows, seed):
    rng = np.random.default_rng(seed)
    support = rng.normal(size=(rows, n_blocks * block_size)) * 10
    probs = blockwise_softmax(support, [block_size] * n_blocks)
    for b in range(n_blocks):
        block = probs[:, b * block_size : (b + 1) * block_size]
        assert np.allclose(block.sum(axis=1), 1.0, atol=1e-9)


@given(n_items=st.integers(0, 200), n_chunks=st.integers(1, 17))
@settings(max_examples=60, deadline=None)
def test_property_split_into_chunks_partition(n_items, n_chunks):
    chunks = split_into_chunks(n_items, n_chunks)
    assert len(chunks) == n_chunks
    # Chunks are contiguous, ordered, and cover exactly [0, n_items).
    assert chunks[0][0] == 0
    assert chunks[-1][1] == n_items
    for (lo1, hi1), (lo2, hi2) in zip(chunks[:-1], chunks[1:]):
        assert hi1 == lo2
        assert hi1 >= lo1
