"""Reference NumPy/BLAS backend.

This is the numerically authoritative implementation: every other backend is
tested against it.  The heavy operations (masked support GEMM, co-activation
outer product) dispatch to BLAS through ``numpy.matmul``, which is exactly
the "expressed as a GEMM operation that allows using optimized BLAS
libraries" formulation from Section II-B of the paper.

The fused entry points (:meth:`NumpyBackend.forward_into`,
:meth:`NumpyBackend.update_traces`) are workspace-aware: when the execution
engine passes a :class:`repro.engine.LayerWorkspace`, every large
intermediate (masked weights, support, activations, co-activation outer
product) is computed into a preallocated buffer, so the steady-state
training loop performs zero per-batch allocations of layer-sized arrays.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro import kernels
from repro.backend.base import Backend

__all__ = ["NumpyBackend"]


class NumpyBackend(Backend):
    """Single-process, double-precision backend built on NumPy."""

    name = "numpy"
    precision = "float64"

    def forward(
        self,
        x: np.ndarray,
        weights: np.ndarray,
        bias: np.ndarray,
        mask_expanded: np.ndarray,
        hidden_sizes: Sequence[int],
        bias_gain: float = 1.0,
        sparse=None,
    ) -> np.ndarray:
        if sparse is not None:
            return self.forward_into(
                x, weights, bias, mask_expanded, hidden_sizes, bias_gain, sparse=sparse
            )
        x = self._require_2d(x, "x")
        support = kernels.compute_support(x, weights, bias, mask_expanded, bias_gain)
        activations = kernels.hidden_activations(support, hidden_sizes)
        self.stats.count_forward(x.shape[0], weights.shape[1])
        return activations

    def forward_into(
        self,
        x: np.ndarray,
        weights: np.ndarray,
        bias: np.ndarray,
        mask_expanded: np.ndarray,
        hidden_sizes: Sequence[int],
        bias_gain: float = 1.0,
        out: Optional[np.ndarray] = None,
        workspace=None,
        sparse=None,
    ) -> np.ndarray:
        x = self._require_2d(x, "x")
        n_rows = x.shape[0]
        if sparse is not None:
            # Block-sparse fast path: one gather-GEMM per hidden hypercolumn
            # over the packed slabs — only the FLOPs the mask requires.
            support_buf = workspace.support[:n_rows] if workspace is not None else None
            gather = workspace.gather_scratch(sparse.layout) if workspace is not None else None
            if out is None and workspace is not None:
                out = workspace.activations[:n_rows]
            support = kernels.compute_support_sparse(
                x, sparse.blocks, bias, sparse.layout, bias_gain,
                out=support_buf, gather=gather,
            )
            activations = kernels.hidden_activations(support, hidden_sizes, out=out)
            self.stats.count_forward(n_rows, sparse.layout.n_hidden)
            return activations
        support_buf = None
        masked_buf = None
        reuse_masked = False
        if workspace is not None:
            support_buf = workspace.support[:n_rows]
            masked_buf = workspace.masked_weights if mask_expanded is not None else None
            reuse_masked = masked_buf is not None and bool(
                getattr(workspace, "masked_valid", False)
            )
            if out is None:
                out = workspace.activations[:n_rows]
        support = kernels.compute_support(
            x, weights, bias, mask_expanded, bias_gain,
            out=support_buf, masked_scratch=masked_buf, reuse_masked=reuse_masked,
        )
        if masked_buf is not None:
            workspace.masked_valid = True
        activations = kernels.hidden_activations(support, hidden_sizes, out=out)
        self.stats.count_forward(n_rows, weights.shape[1])
        return activations

    def batch_statistics(
        self, x: np.ndarray, a: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        x = self._require_2d(x, "x")
        a = self._require_2d(a, "a")
        result = kernels.batch_outer_product(x, a)
        self.stats.statistics_calls += 1
        self.stats.elements_processed += int(x.shape[1]) * int(a.shape[1])
        return result

    def update_traces(
        self,
        x: np.ndarray,
        a: np.ndarray,
        p_i: np.ndarray,
        p_j: np.ndarray,
        p_ij: np.ndarray,
        taupdt: float,
        workspace=None,
    ) -> None:
        x = self._require_2d(x, "x")
        if not isinstance(a, kernels.OneHotActivity):
            # Winner indices go to the kernel as they are: it counts
            # co-activations instead of multiplying two one-hot matrices.
            a = self._require_2d(a, "a")
        out_x = out_a = out_outer = None
        if workspace is not None:
            out_x, out_a, out_outer = workspace.mean_x, workspace.mean_a, workspace.mean_outer
        mean_x, mean_a, mean_outer = kernels.batch_outer_product(
            x, a, out_x=out_x, out_a=out_a, out_outer=out_outer
        )
        self.stats.statistics_calls += 1
        self.stats.elements_processed += int(x.shape[1]) * int(a.shape[1])
        kernels.ema_update(p_i, p_j, p_ij, mean_x, mean_a, mean_outer, taupdt)

    def traces_to_weights(
        self,
        p_i: np.ndarray,
        p_j: np.ndarray,
        p_ij: np.ndarray,
        trace_floor: float = 1e-12,
        out_weights: Optional[np.ndarray] = None,
        out_bias: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        self.stats.weight_updates += 1
        return kernels.traces_to_weights(
            p_i, p_j, p_ij, trace_floor, out_weights=out_weights, out_bias=out_bias
        )
