"""Block-sparse kernels: layout compilation, packing, gather-GEMM support.

The numerical contract, enforced here at the kernel level:

* packed weight slabs are **bitwise identical** to gathering the dense
  ``traces_to_weights`` output (identical scalar operations per entry);
* the gather-GEMM support equals the dense masked support — bitwise on the
  benchmark configuration (single hidden hypercolumn, batch >= 128, whole-
  hypercolumn index blocks: adding exact zeros does not perturb BLAS's
  ascending-k accumulation there) and to within floating-point summation
  order everywhere else.
"""

import numpy as np
import pytest

from repro import kernels
from repro.exceptions import DataError

INPUT_SIZES = [10] * 28
N_INPUT = 280


def _mask_hc(density, n_hidden_hc=1, seed=0):
    rng = np.random.default_rng(seed)
    mask = np.zeros((len(INPUT_SIZES), n_hidden_hc))
    n_active = max(1, round(density * len(INPUT_SIZES)))
    for h in range(n_hidden_hc):
        mask[rng.choice(len(INPUT_SIZES), n_active, replace=False), h] = 1.0
    return mask


def _problem(density=0.3, n_hidden_hc=1, m=40, batch=128, seed=0):
    rng = np.random.default_rng(seed + 1)
    hidden_sizes = [m] * n_hidden_hc
    mask_hc = _mask_hc(density, n_hidden_hc, seed=seed)
    mask = kernels.expand_mask(mask_hc, INPUT_SIZES, hidden_sizes)
    layout = kernels.SparseLayout(mask_hc, INPUT_SIZES, hidden_sizes)
    n_hidden = m * n_hidden_hc
    p_i = rng.uniform(0.01, 0.2, N_INPUT)
    p_j = rng.uniform(0.01, 0.2, n_hidden)
    p_ij = rng.uniform(1e-6, 0.05, (N_INPUT, n_hidden))
    x = rng.random((batch, N_INPUT))
    return mask_hc, mask, layout, hidden_sizes, p_i, p_j, p_ij, x


class TestSparseLayout:
    def test_block_indices_are_whole_hypercolumns(self):
        mask_hc, _, layout, hidden_sizes, *_ = _problem(density=0.3, n_hidden_hc=3)
        offsets = np.concatenate([[0], np.cumsum(INPUT_SIZES)])
        for h in range(3):
            fields = np.flatnonzero(mask_hc[:, h])
            expected = np.concatenate(
                [np.arange(offsets[f], offsets[f + 1]) for f in fields]
            )
            assert np.array_equal(layout.block_indices[h], expected)

    def test_density_and_packed_size(self):
        _, mask, layout, hidden_sizes, *_ = _problem(density=0.3, n_hidden_hc=2)
        assert layout.density == pytest.approx(mask.mean())
        assert layout.packed_size == int(mask.sum())
        assert layout.max_active == max(layout.n_active_units)

    def test_empty_receptive_field(self):
        mask_hc = np.zeros((len(INPUT_SIZES), 1))
        layout = kernels.SparseLayout(mask_hc, INPUT_SIZES, [5])
        assert layout.packed_size == 0
        assert layout.n_active_units == (0,)
        assert layout.density == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError):
            kernels.SparseLayout(np.ones((3, 1)), INPUT_SIZES, [5])

    def test_block_views_partition_the_flat_buffer(self):
        _, _, layout, *_ = _problem(density=0.5, n_hidden_hc=2)
        flat = np.arange(layout.packed_size, dtype=np.float64)
        views = layout.block_views(flat)
        rebuilt = np.concatenate([v.ravel() for v in views])
        assert np.array_equal(rebuilt, flat)
        with pytest.raises(DataError):
            layout.block_views(flat[:-1])


class TestSparseBeneficial:
    def test_density_threshold(self):
        _, _, layout, *_ = _problem(density=0.3)
        assert kernels.sparse_beneficial(layout)
        assert not kernels.sparse_beneficial(None)
        _, _, dense_layout, *_ = _problem(density=1.0)
        assert not kernels.sparse_beneficial(dense_layout)

    def test_threshold_is_read_at_call_time(self, monkeypatch):
        _, _, layout, *_ = _problem(density=0.3)
        monkeypatch.setattr(kernels, "SPARSE_DENSITY_THRESHOLD", 0.1)
        assert not kernels.sparse_beneficial(layout)
        _, _, dense_layout, *_ = _problem(density=1.0)
        monkeypatch.setattr(kernels, "SPARSE_DENSITY_THRESHOLD", 1.0)
        assert kernels.sparse_beneficial(dense_layout)


class TestPackAndScatter:
    @pytest.mark.parametrize("density", [0.1, 0.3, 0.5])
    @pytest.mark.parametrize("n_hidden_hc", [1, 3])
    def test_packed_slabs_bitwise_match_dense_weights(self, density, n_hidden_hc):
        _, mask, layout, hidden_sizes, p_i, p_j, p_ij, _ = _problem(
            density, n_hidden_hc
        )
        dense_w, dense_b = kernels.traces_to_weights(p_i, p_j, p_ij)
        blocks, bias = kernels.pack_traces_to_weights(p_i, p_j, p_ij, layout)
        assert np.array_equal(bias, dense_b)
        for h, idx, lo, hi in layout.iter_blocks():
            assert np.array_equal(blocks[h], dense_w[np.ix_(idx, np.arange(lo, hi))])

    def test_pack_streams_into_preallocated_buffers(self):
        _, _, layout, _, p_i, p_j, p_ij, _ = _problem(0.3)
        flat = np.empty(layout.packed_size)
        blocks = layout.block_views(flat)
        bias = np.empty(layout.n_hidden)
        out_blocks, out_bias = kernels.pack_traces_to_weights(
            p_i, p_j, p_ij, layout, out_blocks=blocks, out_bias=bias
        )
        assert out_blocks is blocks
        assert out_bias is bias

    def test_shape_mismatch_rejected(self):
        _, _, layout, *_ = _problem(0.3)
        with pytest.raises(DataError):
            kernels.pack_traces_to_weights(
                np.ones(3), np.ones(4), np.ones((3, 4)), layout
            )


class TestSparseSupport:
    def test_bitwise_on_the_benchmark_configuration(self):
        """H=1, batch 128/256, density 0.3: gather-GEMM == dense masked GEMM."""
        _, mask, layout, hidden_sizes, p_i, p_j, p_ij, x = _problem(
            density=0.3, n_hidden_hc=1, m=300, batch=256
        )
        weights, bias = kernels.traces_to_weights(p_i, p_j, p_ij)
        blocks, packed_bias = kernels.pack_traces_to_weights(p_i, p_j, p_ij, layout)
        for batch in (256, 128):
            dense = kernels.compute_support(x[:batch], weights, bias, mask)
            sparse = kernels.compute_support_sparse(
                x[:batch], blocks, packed_bias, layout
            )
            assert np.array_equal(sparse, dense)

    @pytest.mark.parametrize("density", [0.1, 0.3, 0.5])
    @pytest.mark.parametrize("n_hidden_hc,batch", [(1, 32), (3, 128), (2, 7)])
    def test_matches_dense_to_summation_order(self, density, n_hidden_hc, batch):
        _, mask, layout, hidden_sizes, p_i, p_j, p_ij, x = _problem(
            density, n_hidden_hc, batch=batch
        )
        weights, bias = kernels.traces_to_weights(p_i, p_j, p_ij)
        blocks, packed_bias = kernels.pack_traces_to_weights(p_i, p_j, p_ij, layout)
        dense = kernels.compute_support(x, weights, bias, mask, bias_gain=0.7)
        sparse = kernels.compute_support_sparse(
            x, blocks, packed_bias, layout, bias_gain=0.7
        )
        np.testing.assert_allclose(sparse, dense, rtol=0, atol=1e-11)

    def test_gather_scratch_is_used_and_optional(self):
        _, mask, layout, hidden_sizes, p_i, p_j, p_ij, x = _problem(0.3)
        blocks, bias = kernels.pack_traces_to_weights(p_i, p_j, p_ij, layout)
        scratch = np.empty(x.shape[0] * layout.max_active)
        with_scratch = kernels.compute_support_sparse(
            x, blocks, bias, layout, gather=scratch
        )
        without = kernels.compute_support_sparse(x, blocks, bias, layout)
        assert np.array_equal(with_scratch, without)

    def test_empty_block_yields_pure_bias_support(self):
        mask_hc = np.zeros((len(INPUT_SIZES), 1))
        layout = kernels.SparseLayout(mask_hc, INPUT_SIZES, [6])
        blocks = layout.block_views(np.empty(0))
        bias = np.linspace(-1, 1, 6)
        x = np.random.default_rng(0).random((9, N_INPUT))
        support = kernels.compute_support_sparse(x, blocks, bias, layout)
        assert np.array_equal(support, np.tile(bias, (9, 1)))

    def test_input_width_mismatch_rejected(self):
        _, _, layout, _, p_i, p_j, p_ij, _ = _problem(0.3)
        blocks, bias = kernels.pack_traces_to_weights(p_i, p_j, p_ij, layout)
        with pytest.raises(DataError):
            kernels.compute_support_sparse(np.ones((4, 7)), blocks, bias, layout)
