"""Reference NumPy kernels for the BCPNN update.

These are the mathematical primitives every compute backend must provide
(see :mod:`repro.backend.base`).  The rate-based BCPNN formulation maps the
expensive steps onto dense matrix products (GEMM) exactly as the paper's
Section II-B describes, so the NumPy implementation already dispatches to
BLAS; the reduced-precision backends reuse these functions on quantised
data.

The module lives at the top of the package (outside both ``repro.core`` and
``repro.backend``) so that backends can depend on the kernels without
importing the layer/network layer — this is what breaks the historical
``core.layers -> backend.registry -> numpy_backend -> core`` import cycle.

Every hot-path kernel accepts optional ``out=`` buffers so the execution
engine (:mod:`repro.engine`) can stream batches through preallocated
workspaces instead of allocating fresh intermediates per batch.  The one
step of the update that is *not* a GEMM — the training-time competition —
is a kernel here as well (:func:`compete_into`); under its default
``sample`` rule it hands :func:`batch_outer_product` the winner indices
(:class:`OneHotActivity`), whose statistics are counts rather than a
product of two one-hot matrices, and :func:`ema_update` scatters only the
entries of ``p_ij`` a batch touches.

Notation
--------
``x``      batch of input activations, shape ``(B, N_in)``; each input
           hypercolumn block of a row is a probability distribution
           (one-hot in the Higgs pipeline).
``a``      hidden activations, shape ``(B, N_hid)``; softmax per hidden HCU.
``p_i``    input unit marginal trace, shape ``(N_in,)``.
``p_j``    hidden unit marginal trace, shape ``(N_hid,)``.
``p_ij``   joint trace, shape ``(N_in, N_hid)``.
``w``      weights ``log(p_ij / (p_i p_j))``, shape ``(N_in, N_hid)``.
``b``      bias ``log(p_j)``, shape ``(N_hid,)``.
``mask``   structural-plasticity connectivity, shape ``(F, H)`` over
           (input hypercolumn, hidden hypercolumn) pairs.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import DataError
from repro.utils.arrays import EPS, block_layout, block_offsets, blockwise_softmax, stable_log

__all__ = [
    "expand_mask",
    "compute_support",
    "hidden_activations",
    "OneHotActivity",
    "one_hot_counts",
    "competition_noise_scale",
    "compete_into",
    "batch_outer_product",
    "traces_to_weights",
    "ema_update",
    "mutual_information_scores",
    "classifier_support",
    "SparseLayout",
    "SparseWeights",
    "SPARSE_DENSITY_THRESHOLD",
    "sparse_beneficial",
    "pack_traces_to_weights",
    "compute_support_sparse",
]

# --------------------------------------------------------------------------
# Block-sparse execution: exploiting the structural-plasticity mask.
#
# Structural plasticity connects each hidden hypercolumn to only a
# ``density`` fraction of the input hypercolumns, yet the dense kernels
# above still burn the full ``N_in x N_hid`` FLOPs on every support GEMM
# and every trace->weight refresh.  A :class:`SparseLayout` compiles the
# ``(F, H)`` hypercolumn mask into a block-CSC index structure — one sorted
# active input-*unit* index vector per hidden hypercolumn — that the sparse
# kernels consume:
#
# * :func:`pack_traces_to_weights` computes the BCPNN log-weights only for
#   the active rows of each hidden block (packed slabs), skipping the
#   log-heavy conversion on silent connections entirely;
# * :func:`compute_support_sparse` runs one gather-GEMM per hidden block —
#   ``x[:, active] @ packed`` — touching only the FLOPs the connectivity
#   actually requires.
#
# The *trace update* deliberately stays dense: the joint trace ``p_ij``
# must keep statistics for silent connections too, because the structural
# plasticity rule scores silent candidates from exactly those entries when
# deciding which connections to swap in.  Sparsifying the statistics would
# freeze silent scores and change which swaps happen — so the sparse
# execution plan accelerates the refresh, the masked product and the
# support GEMM, and leaves the learning-rule statistics bit-identical.
# --------------------------------------------------------------------------

#: Receptive-field density at or below which a layer runs the block-sparse
#: kernels (see :func:`sparse_beneficial`).  Measured break-even on the
#: Higgs-sized configuration (280 inputs, 1x300 hidden, batches 64-256) sits
#: around density 0.7; 0.6 keeps a safety margin so the sparse plan never loses.
SPARSE_DENSITY_THRESHOLD = 0.6


class SparseLayout:
    """Compiled block-CSC view of an ``(F, H)`` hypercolumn mask.

    For every hidden hypercolumn ``h`` the layout stores the sorted input
    *unit* indices of its active receptive field (whole input hypercolumns —
    connection granularity follows the paper's figures) plus the unit range
    the block occupies in the hidden axis.  Packed weight slabs follow the
    same structure: block ``h``'s slab has shape ``(n_active_units[h],
    hidden_sizes[h])`` and lives in a flat buffer so engines can allocate
    it once.

    The layout is immutable; a structural-plasticity step that changes the
    mask compiles a fresh layout (and thereby invalidates every cache keyed
    on layout identity).
    """

    __slots__ = (
        "input_sizes",
        "hidden_sizes",
        "n_input",
        "n_hidden",
        "block_indices",
        "block_starts",
        "hidden_offsets",
        "n_active_units",
        "packed_size",
        "max_active",
        "density",
        "equal_k_groups",
        "grouped_block_ids",
        "_group_cache",
    )

    def __init__(
        self,
        mask: np.ndarray,
        input_sizes: Sequence[int],
        hidden_sizes: Sequence[int],
    ) -> None:
        mask = np.asarray(mask)
        input_sizes = [int(s) for s in input_sizes]
        hidden_sizes = [int(s) for s in hidden_sizes]
        if mask.ndim != 2 or mask.shape != (len(input_sizes), len(hidden_sizes)):
            raise DataError(
                f"mask shape {mask.shape} does not match (n_input_hc="
                f"{len(input_sizes)}, n_hidden_hc={len(hidden_sizes)})"
            )
        self.input_sizes = tuple(input_sizes)
        self.hidden_sizes = tuple(hidden_sizes)
        self.n_input = int(np.sum(input_sizes))
        self.n_hidden = int(np.sum(hidden_sizes))
        input_offsets = block_offsets(input_sizes)
        self.hidden_offsets = block_offsets(hidden_sizes)
        active = mask != 0
        self.block_indices: List[np.ndarray] = []
        starts = [0]
        for h in range(len(hidden_sizes)):
            fields = np.flatnonzero(active[:, h])
            if fields.size:
                idx = np.concatenate(
                    [np.arange(input_offsets[f], input_offsets[f + 1]) for f in fields]
                )
            else:
                idx = np.empty(0, dtype=np.intp)
            self.block_indices.append(np.ascontiguousarray(idx, dtype=np.intp))
            starts.append(starts[-1] + idx.size * hidden_sizes[h])
        self.block_starts = tuple(starts)
        self.n_active_units = tuple(idx.size for idx in self.block_indices)
        self.packed_size = starts[-1]
        self.max_active = max(self.n_active_units) if self.n_active_units else 0
        dense_size = self.n_input * self.n_hidden
        self.density = (
            sum(
                idx.size * m for idx, m in zip(self.block_indices, hidden_sizes)
            ) / dense_size
            if dense_size
            else 0.0
        )
        # Ragged-k batching plan: blocks sharing the same (k, m) slab shape
        # can run as ONE batched gather-GEMM instead of one GEMM each, which
        # is what keeps the per-block Python loop from dominating at large H.
        # Uniform connectivity (the common case) collapses into a single
        # group covering every block.
        by_shape: dict = {}
        for h, idx in enumerate(self.block_indices):
            if idx.size:
                by_shape.setdefault((idx.size, hidden_sizes[h]), []).append(h)
        self.equal_k_groups: Tuple[Tuple[int, int, Tuple[int, ...]], ...] = tuple(
            (k, m, tuple(blocks))
            for (k, m), blocks in sorted(by_shape.items())
            if len(blocks) > 1
        )
        self.grouped_block_ids = frozenset(
            h for _k, _m, blocks in self.equal_k_groups for h in blocks
        )
        self._group_cache: dict = {}

    def group_gather_indices(self, group: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Precomputed gather indices for one equal-k group (cached).

        Returns ``(joint, rows, cols)`` where ``joint`` (shape ``(g, k, m)``)
        holds flat indices into a C-order ``(n_input, n_hidden)`` matrix,
        ``rows`` (``(g, k)``) the active input-unit indices and ``cols``
        (``(g, m)``) the hidden-unit columns of each block in the group.
        """
        cached = self._group_cache.get(group)
        if cached is None:
            _k, m, blocks = self.equal_k_groups[group]
            rows = np.stack([self.block_indices[h] for h in blocks])
            cols = np.stack(
                [
                    np.arange(self.hidden_offsets[h], self.hidden_offsets[h] + m, dtype=np.intp)
                    for h in blocks
                ]
            )
            joint = np.ascontiguousarray(
                rows[:, :, None] * self.n_hidden + cols[:, None, :], dtype=np.intp
            )
            cached = (joint, rows, cols)
            self._group_cache[group] = cached
        return cached

    def iter_blocks(self):
        """Yield ``(h, active_indices, hidden_lo, hidden_hi)`` per block."""
        for h, idx in enumerate(self.block_indices):
            yield h, idx, int(self.hidden_offsets[h]), int(self.hidden_offsets[h + 1])

    def block_views(self, flat: np.ndarray) -> List[np.ndarray]:
        """Per-block 2-D slab views into a flat packed buffer."""
        flat = np.asarray(flat)
        if flat.ndim != 1 or flat.shape[0] < self.packed_size:
            raise DataError(
                f"packed buffer of size {flat.shape} cannot hold {self.packed_size} values"
            )
        views = []
        for h, idx in enumerate(self.block_indices):
            lo, hi = self.block_starts[h], self.block_starts[h + 1]
            views.append(flat[lo:hi].reshape(idx.size, self.hidden_sizes[h]))
        return views


class SparseWeights:
    """Bundle of one layer's packed sparse parameters for a dispatch.

    ``layout`` is the compiled :class:`SparseLayout`, ``blocks`` the
    per-hidden-hypercolumn packed weight slabs (views into ``flat``), and
    ``flat`` the flat buffer backing them — engines key their caches on the
    identities of ``flat`` and ``layout``, so a repack into a fresh buffer
    or a recompiled layout invalidates every cached derived product.
    """

    __slots__ = ("layout", "blocks", "flat")

    def __init__(self, layout: SparseLayout, blocks: List[np.ndarray], flat: np.ndarray):
        self.layout = layout
        self.blocks = blocks
        self.flat = flat


def sparse_beneficial(layout: Optional[SparseLayout]) -> bool:
    """Whether the block-sparse kernels should serve a layout.

    True when the layout's unit-level density is at or below
    :data:`SPARSE_DENSITY_THRESHOLD` — the measured break-even of gather-GEMM
    vs the dense masked GEMM.  The constant is read at call time, so pinning
    it to 0.0 or 1.0 selects the dense or the sparse path for layouts
    compiled while the pin holds.
    """
    return layout is not None and layout.density <= SPARSE_DENSITY_THRESHOLD


#: ``ndarray.__array_interface__`` (read below and by ``as_strided``) interns
#: each key of the dict it builds.  While no live object holds these strings,
#: every call interns and drops them again, and the churn makes CPython rebuild
#: its interned-string table (~2 MB) every few thousand calls, mid-batch.
_ARRAY_INTERFACE_KEYS = ("data", "descr", "shape", "strides", "typestr", "version")


def _stack_slabs(blocks: Sequence[np.ndarray]) -> Tuple[np.ndarray, bool]:
    """3-D stack of equal-shape 2-D slabs; zero-copy when they are adjacent.

    Slabs produced by :meth:`SparseLayout.block_views` over one flat buffer
    are contiguous and back-to-back, so the stacked ``(g, k, m)`` array can
    be a strided *view* — writes through it land in the flat buffer.
    Returns ``(stacked, is_view)``; callers must copy results back per block
    when ``is_view`` is ``False``.
    """
    first = blocks[0]
    if all(b.flags["C_CONTIGUOUS"] for b in blocks):
        ptr0 = first.__array_interface__["data"][0]
        if all(
            b.__array_interface__["data"][0] == ptr0 + i * first.nbytes
            for i, b in enumerate(blocks)
        ):
            stacked = np.lib.stride_tricks.as_strided(
                first,
                shape=(len(blocks),) + first.shape,
                strides=(first.nbytes,) + first.strides,
            )
            return stacked, True
    return np.stack(blocks), False


def pack_traces_to_weights(
    p_i: np.ndarray,
    p_j: np.ndarray,
    p_ij: np.ndarray,
    layout: SparseLayout,
    trace_floor: float = 1e-12,
    out_blocks: Optional[List[np.ndarray]] = None,
    out_bias: Optional[np.ndarray] = None,
) -> Tuple[List[np.ndarray], np.ndarray]:
    """Sparse trace->weight refresh: log-weights for active rows only.

    Every packed entry is produced by exactly the same scalar operations as
    :func:`traces_to_weights` applies to the corresponding dense entry
    (floor, log, subtract the two marginal logs), so the packed slabs are
    *bitwise identical* to gathering the dense weight matrix — only the
    silent rows' log evaluations are skipped.  At density ``d`` the refresh
    touches a ``d`` fraction of the joint trace, which is the dominant
    per-batch saving of sparse training (the refresh cost is independent of
    the batch size, so small streaming batches benefit the most).
    """
    p_i = np.asarray(p_i, dtype=np.float64)
    p_j = np.asarray(p_j, dtype=np.float64)
    p_ij = np.asarray(p_ij, dtype=np.float64)
    if p_ij.shape != (layout.n_input, layout.n_hidden):
        raise DataError(
            f"p_ij shape {p_ij.shape} does not match layout "
            f"({layout.n_input}, {layout.n_hidden})"
        )
    if out_blocks is None:
        out_blocks = layout.block_views(np.empty(layout.packed_size, dtype=np.float64))
    log_pj = stable_log(p_j, trace_floor)
    # Equal-(k, m) groups refresh as one flat gather + one vectorised
    # log pass over the whole (g, k, m) stack — the per-block Python loop
    # below only serves the ragged leftovers.  The scalar operations are
    # identical either way, so the packed result stays bitwise-equal.
    p_flat = np.ravel(p_ij)
    for group in range(len(layout.equal_k_groups)):
        _k, _m, blocks = layout.equal_k_groups[group]
        joint, rows, cols = layout.group_gather_indices(group)
        stacked, is_view = _stack_slabs([out_blocks[h] for h in blocks])
        if is_view:
            np.take(p_flat, joint, out=stacked)
        else:
            stacked = p_flat.take(joint)
        np.maximum(stacked, trace_floor, out=stacked)
        np.log(stacked, out=stacked)
        stacked -= stable_log(p_i.take(rows), trace_floor)[:, :, None]
        stacked -= log_pj.take(cols)[:, None, :]
        if not is_view:
            for i, h in enumerate(blocks):
                np.copyto(out_blocks[h], stacked[i])
    grouped = layout.grouped_block_ids
    for h, idx, lo, hi in layout.iter_blocks():
        if idx.size == 0 or h in grouped:
            continue
        slab = out_blocks[h]
        block = p_ij if (lo == 0 and hi == p_ij.shape[1]) else p_ij[:, lo:hi]
        # ndarray.take (not the np.take wrapper): this runs once per block
        # per batch on the training hot path.
        block.take(idx, axis=0, out=slab)
        np.maximum(slab, trace_floor, out=slab)
        np.log(slab, out=slab)
        log_pi = stable_log(p_i.take(idx), trace_floor)
        slab -= log_pi[:, None]
        slab -= log_pj[None, lo:hi]
    if out_bias is None:
        bias = log_pj
    else:
        np.copyto(out_bias, log_pj)
        bias = out_bias
    return out_blocks, bias


def compute_support_sparse(
    x: np.ndarray,
    packed_blocks: List[np.ndarray],
    bias: np.ndarray,
    layout: SparseLayout,
    bias_gain: float = 1.0,
    out: Optional[np.ndarray] = None,
    gather: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Block-sparse support: one gather-GEMM per hidden hypercolumn.

    ``s[:, block_h] = bias_gain * b[block_h] + x[:, active_h] @ packed_h``

    ``gather`` is an optional flat scratch buffer (at least ``B *
    layout.max_active`` floats) the active input columns are gathered into,
    so the steady-state loop allocates nothing.  The gathered copy is
    contiguous, which is what lets BLAS run the reduced-K GEMM at full
    speed.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != layout.n_input:
        raise DataError(
            f"x shape {x.shape} does not match layout n_input={layout.n_input}"
        )
    bias = np.asarray(bias, dtype=np.float64)
    if bias.shape != (layout.n_hidden,):
        raise DataError("bias shape does not match the layout's hidden width")
    n_rows = x.shape[0]
    if out is None:
        out = np.empty((n_rows, layout.n_hidden), dtype=np.float64)
    # Equal-(k, m) groups run as batched gather-GEMMs — `(g, B, k) @ (g, k, m)`
    # — instead of one GEMM per block; groups are sub-chunked so the gathered
    # operand still fits the caller's scratch buffer.  Each batch element is
    # the same `(B, k) @ (k, m)` contraction the per-block loop performs, so
    # the support stays bitwise-equal.
    for group in range(len(layout.equal_k_groups)):
        k, m, blocks = layout.equal_k_groups[group]
        per_block = n_rows * k
        if gather is not None and gather.size >= per_block:
            chunk = min(len(blocks), gather.size // per_block)
        else:
            chunk = len(blocks)
        for start in range(0, len(blocks), chunk):
            sub = blocks[start : start + chunk]
            g = len(sub)
            if gather is not None and gather.size >= g * per_block:
                xg = gather[: g * per_block].reshape(g, n_rows, k)
            else:
                xg = np.empty((g, n_rows, k), dtype=np.float64)
            for i, h in enumerate(sub):
                x.take(layout.block_indices[h], axis=1, out=xg[i])
            stacked, _ = _stack_slabs([packed_blocks[h] for h in sub])
            if out.strides[1] == out.itemsize and all(
                sub[i + 1] == sub[i] + 1 for i in range(g - 1)
            ):
                # Adjacent blocks: write straight into the support through a
                # (g, B, m) transposed view of the output columns.
                lo = int(layout.hidden_offsets[sub[0]])
                dst = out[:, lo : lo + g * m].reshape(n_rows, g, m).transpose(1, 0, 2)
                np.matmul(xg, stacked, out=dst)
            else:
                res = np.matmul(xg, stacked)
                for i, h in enumerate(sub):
                    lo = int(layout.hidden_offsets[h])
                    out[:, lo : lo + m] = res[i]
    grouped = layout.grouped_block_ids
    for h, idx, lo, hi in layout.iter_blocks():
        if h in grouped:
            continue
        if idx.size == 0:
            out[:, lo:hi] = 0.0
            continue
        if gather is not None and gather.size >= n_rows * idx.size:
            xg = gather[: n_rows * idx.size].reshape(n_rows, idx.size)
            x.take(idx, axis=1, out=xg)
        else:
            xg = np.ascontiguousarray(x[:, idx])
        np.matmul(xg, packed_blocks[h], out=out[:, lo:hi])
    if bias_gain == 1.0:
        # ``1.0 * bias`` is exact, so skipping the multiply (and its
        # temporary) is bitwise-identical to the dense path's bias add.
        out += bias[None, :]
    else:
        out += bias_gain * bias[None, :]
    return out


def expand_mask(
    mask: np.ndarray,
    input_sizes: Sequence[int],
    hidden_sizes: Sequence[int],
) -> np.ndarray:
    """Expand an ``(F, H)`` hypercolumn mask to unit resolution ``(N_in, N_hid)``.

    Connection granularity in this reproduction follows the paper's figures:
    a hidden HCU either sees *all* units of an input feature's hypercolumn or
    none of them.
    """
    mask = np.asarray(mask, dtype=np.float64)
    input_sizes = np.asarray(input_sizes, dtype=np.int64)
    hidden_sizes = np.asarray(hidden_sizes, dtype=np.int64)
    if mask.ndim != 2:
        raise DataError(f"mask must be 2-D, got shape {mask.shape}")
    if mask.shape != (input_sizes.shape[0], hidden_sizes.shape[0]):
        raise DataError(
            f"mask shape {mask.shape} does not match (n_input_hc={input_sizes.shape[0]}, "
            f"n_hidden_hc={hidden_sizes.shape[0]})"
        )
    expanded = np.repeat(np.repeat(mask, input_sizes, axis=0), hidden_sizes, axis=1)
    return np.ascontiguousarray(expanded)


def compute_support(
    x: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray,
    mask_expanded: np.ndarray = None,
    bias_gain: float = 1.0,
    out: Optional[np.ndarray] = None,
    masked_scratch: Optional[np.ndarray] = None,
    reuse_masked: bool = False,
) -> np.ndarray:
    """Compute the hidden support ``s = bias_gain * b + x @ (w * mask)``.

    The masked weight product is the GEMM the paper offloads to accelerators.
    ``out`` receives the support (shape ``(B, N_hid)``) when given;
    ``masked_scratch`` is an optional ``(N_in, N_hid)`` buffer for the masked
    weight product so the hot path does not allocate it per batch.
    ``reuse_masked=True`` asserts that ``masked_scratch`` already holds the
    current ``weights * mask`` product (neither operand changed since it was
    written), skipping the per-batch multiply entirely — the engine-level
    cache backing stale-weights training.
    """
    x = np.asarray(x, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    if x.ndim != 2 or weights.ndim != 2:
        raise DataError("x and weights must be 2-D")
    if x.shape[1] != weights.shape[0]:
        raise DataError(
            f"x has {x.shape[1]} columns but weights expect {weights.shape[0]} inputs"
        )
    if bias.shape != (weights.shape[1],):
        raise DataError("bias shape does not match the number of hidden units")
    if mask_expanded is not None:
        mask_expanded = np.asarray(mask_expanded, dtype=np.float64)
        if mask_expanded.shape != weights.shape:
            raise DataError("mask_expanded shape must match weights shape")
        if masked_scratch is not None:
            if reuse_masked:
                effective = masked_scratch
            else:
                effective = np.multiply(weights, mask_expanded, out=masked_scratch)
        else:
            effective = weights * mask_expanded
    else:
        effective = weights
    if out is None:
        return bias_gain * bias[None, :] + x @ effective
    np.matmul(x, effective, out=out)
    out += bias_gain * bias[None, :]
    return out


def hidden_activations(
    support: np.ndarray,
    hidden_sizes: Sequence[int],
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Softmax within each hidden hypercolumn (mutual inhibition inside an HCU)."""
    return blockwise_softmax(support, hidden_sizes, out=out)


class OneHotActivity:
    """Winner-take-all training activity: one active unit per row and block.

    ``winners[b, h]`` is the hidden-unit *column* that won hypercolumn ``h``
    on row ``b``; ``width`` is the number of hidden units.  This is the
    value :func:`compete_into` returns in ``sample`` mode instead of a
    zero-filled ``(B, width)`` float matrix: the statistics of a one-hot
    activity are co-activation *counts* (:func:`one_hot_counts`), formed
    without a GEMM.  :meth:`dense` materialises the matrix for consumers
    that want one.
    """

    __slots__ = ("winners", "width")

    def __init__(self, winners: np.ndarray, width: int) -> None:
        """Wrap ``intp`` winners known to lie in ``[0, width)``, unchecked."""
        self.winners, self.width = winners, width

    @property
    def shape(self) -> Tuple[int, int]:
        """Shape of the dense matrix this activity stands for."""
        return (self.winners.shape[0], self.width)

    def dense(self, out: Optional[np.ndarray] = None) -> np.ndarray:
        """The ``(B, width)`` one-hot float matrix (written into ``out``)."""
        if out is None:
            out = np.zeros(self.shape, dtype=np.float64)
        elif out.shape != self.shape:
            raise DataError(f"out has shape {out.shape}, expected {self.shape}")
        else:
            out[:] = 0.0
        out[np.arange(out.shape[0])[:, None], self.winners] = 1.0
        return out


def one_hot_counts(
    x: np.ndarray, winners: np.ndarray, width: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Integer counts ``(sum_x, sum_a, flat, hits)`` of a {0,1} batch, by index.

    ``x`` must be exactly {0,1}-valued (not checked); ``winners`` are the
    ``(B, n_hcu)`` columns of an :class:`OneHotActivity` of ``width`` units.
    ``sum_x`` and ``sum_a`` count the rows each input unit is on and each
    hidden unit won; ``x^T a`` is ``hits`` at the sorted unique flat indices
    ``flat`` of an ``(n_input, width)`` matrix and 0 elsewhere.  Only the
    pairs a batch touches are formed, and counts are exact in any order.
    """
    # 1-D nonzero over a bool mask is numpy's fast path (2-D is several x slower).
    rows, cols = np.divmod(np.flatnonzero(x != 0), x.shape[1])
    pairs = (cols[:, None] * width + winners[rows]).ravel()
    flat, hits = np.unique(pairs, return_counts=True)
    sum_x = np.bincount(cols, minlength=x.shape[1])
    sum_a = np.bincount(winners.ravel(), minlength=width)
    return sum_x, sum_a, flat, hits


#: Competition rules of the unsupervised training step (see
#: :class:`repro.core.hyperparams.BCPNNHyperParameters`).
COMPETITION_MODES = ("softmax", "noisy_softmax", "sample")


def competition_noise_scale(mode: str, noise_scale: float) -> Optional[float]:
    """Scale of the normals a ``mode`` competition adds; ``None`` if it draws none."""
    if mode == "noisy_softmax":
        return noise_scale
    if mode == "sample" and noise_scale > 0:
        return 0.1 * noise_scale
    return None


def compete_into(
    activations: np.ndarray,
    hidden_sizes: Sequence[int],
    mode: str,
    noise_scale: float,
    bias: Optional[np.ndarray],
    bias_delta: float,
    rng: np.random.Generator,
    scratch=None,
    noise: Optional[np.ndarray] = None,
):
    """Training-time competition over rate-based activations.

    The competition logits are recovered from the forward activations as
    ``log(max(a, 1e-12))`` (the per-hypercolumn log-normaliser cancels
    inside the softmax), the occupancy bias is re-weighted by ``bias_delta *
    bias`` (the conscience mechanism: the layer passes ``competition_bias_gain
    - bias_gain``), the mode's exploration noise is added and a softmax runs
    within each hypercolumn.  ``softmax`` and ``noisy_softmax`` return that
    dense ``(B, H)`` activity; ``sample`` draws one winner per row and
    hypercolumn from it and returns an :class:`OneHotActivity`.

    ``scratch`` is a workspace (duck-typed on
    :class:`repro.engine.LayerWorkspace`: a ``support`` buffer, free once
    the forward produced ``activations``, and ``noise_scratch()``); every
    ``(B, H)`` intermediate is then computed in place in its buffers — the
    dense activity returned is a view of ``scratch.support``, valid until
    the next dispatch — and the only layer-sized allocation is the
    ``sample`` pick's one-byte comparison.  Without it the buffers are
    allocated per call.  ``activations`` is never written.

    **Draw-order contract.**  The generator is consumed in a fixed order
    and count, which is what makes training reproducible from a seed (and
    what a checkpointed generator state resumes into): ``softmax`` draws
    nothing; ``noisy_softmax`` draws ``B*H`` normals (also at scale 0);
    ``sample`` draws ``B*H`` normals iff ``noise_scale > 0`` (applied at a
    tenth of the scale, so exactly-tied columns still split), then
    ``B*n_hypercolumns`` uniforms.  ``noise`` is the ``(B, H)`` buffer of
    that call's normals already drawn (``rng.standard_normal(out=noise)``,
    possibly on another thread): the kernel then draws only the uniforms,
    and scales ``noise`` in place.  Passing it to a mode that draws no
    normals is an error.
    """
    activations = np.asarray(activations, dtype=np.float64)
    if activations.ndim != 2:
        raise DataError(f"activations must be 2-D, got shape {activations.shape}")
    if mode not in COMPETITION_MODES:
        raise DataError(f"competition mode must be one of {COMPETITION_MODES}, got {mode!r}")
    starts, stops, uniform = block_layout(tuple(hidden_sizes))
    n, width = activations.shape
    if width != stops[-1]:
        raise DataError(f"activations have {width} columns, hidden sizes sum to {stops[-1]}")
    if scratch is None:
        logits = np.empty((n, width), dtype=np.float64)
    else:
        logits = scratch.support[:n]
        if logits.shape != (n, width) or not logits.flags.c_contiguous:
            raise DataError(
                f"scratch.support {scratch.support.shape} cannot hold a "
                f"contiguous {(n, width)} batch"
            )
    np.maximum(activations, EPS, out=logits)
    np.log(logits, out=logits)
    if bias_delta != 0.0 and bias is not None:
        logits += bias_delta * bias[None, :]
    scale = competition_noise_scale(mode, noise_scale)
    if noise is not None and (scale is None or noise.shape != (n, width)):
        raise DataError(
            f"a drawn noise buffer {noise.shape} does not fit a {mode!r} competition "
            f"over {(n, width)} activations"
        )
    if scale is not None:
        # ``standard_normal(out=) * scale`` is draw for draw and bit for bit
        # ``Generator.normal(0.0, scale, size)`` without its fresh array.
        if noise is None:
            noise = np.empty_like(logits) if scratch is None else scratch.noise_scratch()[:n]
            rng.standard_normal(out=noise)
        noise *= scale
        logits += noise
    # (view, hypercolumn slice) pairs; every view is (B, k, m) with one
    # hypercolumn along its last axis: a single cube over all k = n_blocks
    # hypercolumns when they share a size, else one k = 1 view per block.
    n_blocks = starts.shape[0]
    m = int(stops[0])
    if uniform:
        blocks = [(logits.reshape(n, n_blocks, m), slice(None))]
    else:
        blocks = [
            (logits[:, None, lo:hi], slice(b, b + 1))
            for b, (lo, hi) in enumerate(zip(starts, stops))
        ]
    for block, _ in blocks:
        block -= block.max(axis=-1, keepdims=True)
        np.exp(block, out=block)
        block /= block.sum(axis=-1, keepdims=True)
    if mode != "sample":
        return logits
    u = rng.random((n, n_blocks))
    winners = np.empty((n, n_blocks), dtype=np.intp)
    for block, cols in blocks:
        # Inverse-cdf pick: the winner is the first column whose cdf reaches
        # the uniform — the number of entries the uniform exceeds, as the
        # cdf is non-decreasing — or the last column where rounding left the
        # whole cdf below it.
        norm = block.sum(axis=-1, keepdims=True)
        norm[norm <= 0.0] = 1.0
        block /= norm
        np.cumsum(block, axis=-1, out=block)
        picks = winners[:, cols]
        np.argmax(block >= u[:, cols, None], axis=-1, out=picks)
        picks[block[..., -1] < u[:, cols]] = block.shape[-1] - 1
    winners += starts
    return OneHotActivity(winners, width)


def batch_outer_product(
    x: np.ndarray,
    a,
    out_x: Optional[np.ndarray] = None,
    out_a: Optional[np.ndarray] = None,
    out_outer: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, object]:
    """Batch-mean marginals and co-activation matrix.

    Returns ``(mean_x, mean_a, mean_outer)`` where ``mean_outer[i, j]`` is the
    batch average of ``x[:, i] * a[:, j]`` — a single GEMM of shape
    ``(N_in, B) @ (B, N_hid)``.  The three ``out_*`` buffers let callers
    stream statistics into a preallocated workspace.

    ``a`` may be an :class:`OneHotActivity`.  When ``x`` is then exactly
    {0,1}-valued (the one-hot Higgs encoding) the GEMM would only count
    co-activations, so they are counted by index (:func:`one_hot_counts`)
    and scaled by the GEMM path's own operations — ``/ B`` for the marginals
    (``np.mean`` divides), ``* (1/B)`` for the joint — and ``mean_outer`` is
    the sparse ``(flat_index, values)`` pair :func:`ema_update` scatters
    (``out_outer`` unused): bit for bit the GEMM's entries, the rest its
    exact zeros.  Real-valued ``x`` takes the GEMM on the dense activity.
    """
    x = np.asarray(x, dtype=np.float64)
    one_hot = isinstance(a, OneHotActivity)
    if not one_hot:
        a = np.asarray(a, dtype=np.float64)
    if x.ndim != 2 or len(a.shape) != 2 or x.shape[0] != a.shape[0]:
        raise DataError("x and a must be 2-D with the same number of rows")
    if x.shape[0] == 0:
        raise DataError("cannot compute batch statistics of an empty batch")
    inv_b = 1.0 / x.shape[0]
    if one_hot:
        if np.count_nonzero(x == 1.0) == np.count_nonzero(x):
            sum_x, sum_a, flat, hits = one_hot_counts(x, a.winners, a.width)
            mean_x = np.true_divide(sum_x, x.shape[0], out=out_x)
            mean_a = np.true_divide(sum_a, x.shape[0], out=out_a)
            return mean_x, mean_a, (flat, hits * inv_b)
        a = a.dense()
    mean_x = np.mean(x, axis=0, out=out_x)
    mean_a = np.mean(a, axis=0, out=out_a)
    if out_outer is None:
        mean_outer = (x.T @ a) * inv_b
    else:
        mean_outer = np.matmul(x.T, a, out=out_outer)
        mean_outer *= inv_b
    return mean_x, mean_a, mean_outer


def traces_to_weights(
    p_i: np.ndarray,
    p_j: np.ndarray,
    p_ij: np.ndarray,
    trace_floor: float = 1e-12,
    out_weights: Optional[np.ndarray] = None,
    out_bias: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Convert probability traces into BCPNN weights and biases.

    ``w_ij = log(p_ij / (p_i * p_j))`` and ``b_j = log(p_j)``, all with a
    numerical floor so silent units produce large-negative rather than
    infinite terms.  ``out_weights``/``out_bias`` receive the results when
    given (the weight refresh runs once per batch, so reusing its buffers is
    a large allocation saving on the training hot path).
    """
    p_i = np.asarray(p_i, dtype=np.float64)
    p_j = np.asarray(p_j, dtype=np.float64)
    p_ij = np.asarray(p_ij, dtype=np.float64)
    if p_ij.shape != (p_i.shape[0], p_j.shape[0]):
        raise DataError(
            f"p_ij shape {p_ij.shape} does not match ({p_i.shape[0]}, {p_j.shape[0]})"
        )
    log_pi = stable_log(p_i, trace_floor)
    log_pj = stable_log(p_j, trace_floor)
    if out_weights is None:
        weights = stable_log(p_ij, trace_floor)
    else:
        np.maximum(p_ij, trace_floor, out=out_weights)
        weights = np.log(out_weights, out=out_weights)
    weights -= log_pi[:, None]
    weights -= log_pj[None, :]
    if out_bias is None:
        bias = log_pj
    else:
        np.copyto(out_bias, log_pj)
        bias = out_bias
    return weights, bias


def ema_update(
    p_i: np.ndarray,
    p_j: np.ndarray,
    p_ij: np.ndarray,
    mean_x: np.ndarray,
    mean_a: np.ndarray,
    mean_outer,
    taupdt: float,
) -> None:
    """In-place trace update ``p <- (1 - taupdt) * p + taupdt * mean``.

    The fused learning-rule step shared by every backend.  The ``mean_*``
    arrays are treated as scratch (they are scaled by ``taupdt`` in place) so
    the update allocates nothing — callers pass workspace buffers or freshly
    computed statistics they no longer need.

    ``mean_outer`` is the dense joint mean or a sparse ``(flat_index,
    values)`` pair (unique indices into a C-contiguous ``p_ij``, 0
    elsewhere), applied as ``p_ij *= decay`` plus a scatter-add of ``values
    * taupdt``: the dense operations at every touched entry and ``p * decay
    == p * decay + 0.0`` at the others, so both forms give the same bits.
    """
    if not 0.0 < taupdt <= 1.0:
        raise DataError(f"taupdt must be in (0, 1], got {taupdt}")
    if mean_x.shape != p_i.shape or mean_a.shape != p_j.shape:
        raise DataError("statistic shapes do not match the trace dimensions")
    sparse = isinstance(mean_outer, tuple)
    if sparse and not p_ij.flags.c_contiguous:
        raise DataError("a (flat_index, values) joint mean needs a C-contiguous p_ij")
    if not sparse and mean_outer.shape != p_ij.shape:
        raise DataError("mean_outer shape does not match the trace dimensions")
    decay = 1.0 - taupdt
    p_i *= decay
    mean_x *= taupdt
    p_i += mean_x
    p_j *= decay
    mean_a *= taupdt
    p_j += mean_a
    p_ij *= decay
    if sparse:
        flat, values = mean_outer
        values *= taupdt
        p_ij.reshape(-1)[flat] += values
    else:
        mean_outer *= taupdt
        p_ij += mean_outer


def mutual_information_scores(
    p_i: np.ndarray,
    p_j: np.ndarray,
    p_ij: np.ndarray,
    input_sizes: Sequence[int],
    hidden_sizes: Sequence[int],
    trace_floor: float = 1e-12,
) -> np.ndarray:
    """Mutual information between each input hypercolumn and each hidden HCU.

    ``score[f, h] = sum_{i in f} sum_{j in h} p_ij * log(p_ij / (p_i p_j))``

    This is the quantity structural plasticity maximises: active connections
    with low scores are exchanged for silent connections with high scores.
    The double block-sum is evaluated with ``np.add.reduceat`` on both axes,
    so the cost is one elementwise pass over ``p_ij``.
    """
    p_i = np.asarray(p_i, dtype=np.float64)
    p_j = np.asarray(p_j, dtype=np.float64)
    p_ij = np.asarray(p_ij, dtype=np.float64)
    input_offsets = block_offsets(input_sizes)[:-1]
    hidden_offsets = block_offsets(hidden_sizes)[:-1]
    if p_ij.shape != (p_i.shape[0], p_j.shape[0]):
        raise DataError("p_ij shape does not match marginal traces")
    if int(np.sum(input_sizes)) != p_i.shape[0]:
        raise DataError("input_sizes do not sum to the number of input units")
    if int(np.sum(hidden_sizes)) != p_j.shape[0]:
        raise DataError("hidden_sizes do not sum to the number of hidden units")
    ratio_log = (
        stable_log(p_ij, trace_floor)
        - stable_log(p_i, trace_floor)[:, None]
        - stable_log(p_j, trace_floor)[None, :]
    )
    contrib = np.where(p_ij > trace_floor, p_ij * ratio_log, 0.0)
    # Block-sum over input hypercolumns (rows) then hidden HCUs (columns).
    row_reduced = np.add.reduceat(contrib, input_offsets, axis=0)
    scores = np.add.reduceat(row_reduced, hidden_offsets, axis=1)
    return scores


def classifier_support(
    hidden: np.ndarray, weights: np.ndarray, bias: np.ndarray, bias_gain: float = 1.0
) -> np.ndarray:
    """Support of the supervised classification layer (single output HCU)."""
    return compute_support(hidden, weights, bias, mask_expanded=None, bias_gain=bias_gain)
