"""Shared-memory batch-parallel backend.

Stands in for StreamBrain's hand-coded OpenMP/SIMD CPU backend.  The batch
dimension is split into chunks that are processed concurrently by a thread
pool: NumPy releases the GIL inside BLAS matmuls and large ufunc loops, so
the chunks genuinely execute in parallel on multicore machines while sharing
the weight/trace arrays with zero copies (the same shared-memory model the
OpenMP backend uses).

The backend is *numerically identical* to the NumPy reference: chunked
softmax is independent per row, and the co-activation statistics are
combined as exact weighted sums of per-chunk sums.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import kernels
from repro.backend.base import Backend
from repro.exceptions import BackendError
from repro.utils.arrays import split_into_chunks

__all__ = ["ParallelBackend", "default_worker_count"]


def default_worker_count() -> int:
    """Worker count default: all cores, overridable via ``REPRO_NUM_WORKERS``."""
    env = os.environ.get("REPRO_NUM_WORKERS")
    if env:
        try:
            value = int(env)
        except ValueError as exc:
            raise BackendError(f"REPRO_NUM_WORKERS must be an integer, got {env!r}") from exc
        if value <= 0:
            raise BackendError("REPRO_NUM_WORKERS must be positive")
        return value
    return max(1, os.cpu_count() or 1)


class ParallelBackend(Backend):
    """Thread-parallel backend chunking work over the batch dimension.

    Parameters
    ----------
    n_workers:
        Number of worker threads (default: CPU count or ``REPRO_NUM_WORKERS``).
    min_chunk:
        Minimum rows per chunk; small batches fall back to single-threaded
        execution to avoid pool overhead.
    """

    name = "parallel"
    precision = "float64"
    supports_parallel = True

    def __init__(self, n_workers: Optional[int] = None, min_chunk: int = 64) -> None:
        super().__init__()
        self.n_workers = int(n_workers) if n_workers is not None else default_worker_count()
        if self.n_workers <= 0:
            raise BackendError("n_workers must be positive")
        if min_chunk <= 0:
            raise BackendError("min_chunk must be positive")
        self.min_chunk = int(min_chunk)
        self._pool: Optional[ThreadPoolExecutor] = None

    # ----------------------------------------------------------- pool mgmt
    @property
    def pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.n_workers, thread_name_prefix="repro-backend"
            )
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def _chunks(self, n_rows: int) -> List[Tuple[int, int]]:
        if n_rows < 2 * self.min_chunk or self.n_workers == 1:
            return [(0, n_rows)]
        n_chunks = min(self.n_workers, max(1, n_rows // self.min_chunk))
        return [c for c in split_into_chunks(n_rows, n_chunks) if c[1] > c[0]]

    # ------------------------------------------------------------- kernels
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
        return self.forward_into(
            x, weights, bias, mask_expanded, hidden_sizes, bias_gain, sparse=sparse
        )

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
        chunks = self._chunks(n_rows)
        self.stats.forward_calls += 1
        if workspace is not None and out is None:
            out = workspace.activations[:n_rows]
        if sparse is not None:
            # Block-sparse path, chunked over the batch rows: each worker
            # gathers its own contiguous row block and runs the per-block
            # gather-GEMMs, sharing the read-only packed slabs zero-copy.
            self.stats.elements_processed += int(n_rows) * int(sparse.layout.n_hidden)
            if len(chunks) == 1:
                support_buf = workspace.support[:n_rows] if workspace is not None else None
                gather = workspace.gather_scratch(sparse.layout) if workspace is not None else None
                support = kernels.compute_support_sparse(
                    x, sparse.blocks, bias, sparse.layout, bias_gain,
                    out=support_buf, gather=gather,
                )
                return kernels.hidden_activations(support, hidden_sizes, out=out)
            if out is None:
                out = np.empty((n_rows, sparse.layout.n_hidden), dtype=np.float64)

            def run_sparse(chunk: Tuple[int, int]) -> None:
                lo, hi = chunk
                support = kernels.compute_support_sparse(
                    x[lo:hi], sparse.blocks, bias, sparse.layout, bias_gain
                )
                kernels.hidden_activations(support, hidden_sizes, out=out[lo:hi])

            list(self.pool.map(run_sparse, chunks))
            return out
        self.stats.elements_processed += int(n_rows) * int(weights.shape[1])
        reuse_masked = (
            workspace is not None
            and mask_expanded is not None
            and bool(getattr(workspace, "masked_valid", False))
        )
        if len(chunks) == 1:
            support_buf = workspace.support[:n_rows] if workspace is not None else None
            masked_buf = (
                workspace.masked_weights
                if workspace is not None and mask_expanded is not None
                else None
            )
            support = kernels.compute_support(
                x, weights, bias, mask_expanded, bias_gain,
                out=support_buf, masked_scratch=masked_buf, reuse_masked=reuse_masked,
            )
            if masked_buf is not None:
                workspace.masked_valid = True
            return kernels.hidden_activations(support, hidden_sizes, out=out)
        # Pre-mask once; workers share the read-only result.
        if mask_expanded is not None:
            if workspace is not None:
                if reuse_masked:
                    effective = workspace.masked_weights
                else:
                    effective = np.multiply(weights, mask_expanded, out=workspace.masked_weights)
                    workspace.masked_valid = True
            else:
                effective = weights * mask_expanded
        else:
            effective = weights
        if out is None:
            out = np.empty((n_rows, weights.shape[1]), dtype=np.float64)

        def run(chunk: Tuple[int, int]) -> None:
            lo, hi = chunk
            support = bias_gain * bias[None, :] + x[lo:hi] @ effective
            kernels.hidden_activations(support, hidden_sizes, out=out[lo:hi])

        list(self.pool.map(run, chunks))
        return out

    def batch_statistics(
        self, x: np.ndarray, a: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        x = self._require_2d(x, "x")
        a = self._require_2d(a, "a")
        if x.shape[0] != a.shape[0]:
            raise BackendError("x and a must have the same number of rows")
        chunks = self._chunks(x.shape[0])
        self.stats.statistics_calls += 1
        self.stats.elements_processed += int(x.shape[1]) * int(a.shape[1])
        if len(chunks) == 1:
            return kernels.batch_outer_product(x, a)

        def run(chunk: Tuple[int, int]):
            lo, hi = chunk
            xs = x[lo:hi]
            as_ = a[lo:hi]
            return xs.sum(axis=0), as_.sum(axis=0), xs.T @ as_, hi - lo

        partials = list(self.pool.map(run, chunks))
        total = float(sum(p[3] for p in partials))
        sum_x = np.sum([p[0] for p in partials], axis=0)
        sum_a = np.sum([p[1] for p in partials], axis=0)
        sum_outer = np.sum([p[2] for p in partials], axis=0)
        return sum_x / total, sum_a / total, sum_outer / total

    # update_traces: the inherited composition (chunked batch_statistics +
    # in-place EMA) is already optimal here — the chunked partial sums combine
    # into fresh mean arrays that ema_update consumes as scratch.

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
        chunks = self._chunks(p_ij.shape[0])
        if len(chunks) == 1:
            return kernels.traces_to_weights(
                p_i, p_j, p_ij, trace_floor, out_weights=out_weights, out_bias=out_bias
            )
        if out_weights is None:
            out_weights = np.empty_like(np.asarray(p_ij, dtype=np.float64))
        weights = out_weights
        log_pj = np.log(np.maximum(np.asarray(p_j, dtype=np.float64), trace_floor))

        def run(chunk: Tuple[int, int]) -> None:
            lo, hi = chunk
            kernels.traces_to_weights(
                np.asarray(p_i[lo:hi]), p_j, np.asarray(p_ij[lo:hi]), trace_floor,
                out_weights=weights[lo:hi],
            )

        list(self.pool.map(run, chunks))
        if out_bias is not None:
            np.copyto(out_bias, log_pj)
            return weights, out_bias
        return weights, log_pj
