"""Preallocated buffers for the streaming execution engine.

A :class:`LayerWorkspace` owns every layer-sized intermediate of the fused
BCPNN training step — the masked weight product, the support/activation
matrices and the batch-statistic buffers — sized once per
``(n_input, n_hidden, batch_size)`` plan.  Backends receive the workspace
through their fused entry points and write into its buffers instead of
allocating per batch, which is what makes the hot path "stream" batches at
steady-state zero allocation (see ``benchmarks/bench_kernels.py`` for the
measured effect).

The workspace is duck-typed on purpose: backends only touch the attribute
names, so alternative workspace implementations (pinned host memory, device
buffers) can be swapped in without changing the backend code.

Two flags support the pipelined training engine (:mod:`repro.engine.plan`):

* ``masked_valid`` — set by a backend after it writes the full
  ``weights * mask`` product into ``masked_weights``; while the owning
  :class:`~repro.engine.LayerEngine` keeps it ``True`` (weights not
  refreshed, same mask object), workspace-aware backends skip the
  per-batch masked multiply entirely.
* after ``update_traces`` with a workspace, ``mean_x``/``mean_a`` hold the
  **taupdt-scaled** batch means (``kernels.ema_update`` scales them in
  place), which is what the engine's stale-weights accounting reads.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = ["LayerWorkspace"]


class LayerWorkspace:
    """Reusable buffers for one ``(n_input, n_hidden, batch_size)`` shape set.

    Only ``support`` and ``activations`` — what every dispatch needs — are
    allocated up front.  The rest is allocated on first use, so a
    forward-only engine (serving stage, bulk-inference tile) holds its two
    ``(batch_size, n_hidden)`` buffers and nothing else.

    Attributes
    ----------
    support, activations:
        ``(batch_size, n_hidden)`` buffers for the support GEMM result and
        the per-hypercolumn softmax.  Smaller (remainder) batches use leading
        row slices of the same buffers.  ``support`` is free again once the
        forward has produced ``activations``; the training step's competition
        (:func:`repro.kernels.compete_into`) then runs in place in it.
    masked_weights:
        ``(n_input, n_hidden)`` scratch for the ``weights * mask`` product
        (lazy: a sparse dispatch never reads it).
    mean_x, mean_a, mean_outer:
        Batch-statistic buffers consumed by the in-place trace update (lazy:
        inference never reads them, and the winner-index statistics path
        returns its own ``mean_outer``).
    """

    def __init__(self, n_input: int, n_hidden: int, batch_size: int) -> None:
        if n_input <= 0 or n_hidden <= 0 or batch_size <= 0:
            raise ConfigurationError(
                "workspace dimensions must be positive, got "
                f"(n_input={n_input}, n_hidden={n_hidden}, batch_size={batch_size})"
            )
        self.n_input = int(n_input)
        self.n_hidden = int(n_hidden)
        self.batch_size = int(batch_size)
        self.support = np.empty((self.batch_size, self.n_hidden), dtype=np.float64)
        self.activations = np.empty((self.batch_size, self.n_hidden), dtype=np.float64)
        #: Whether ``masked_weights`` currently holds the full weights*mask
        #: product (dense multiply or sparse scatter) for the weight/mask
        #: pair the owning engine last saw.
        self.masked_valid = False
        #: Flat scratch the sparse gather-GEMM copies active input columns
        #: into; allocated on the first sparse dispatch, sized by its layout.
        self._gather: np.ndarray = None
        #: ``(batch_size, n_hidden)`` buffer the competition kernel draws its
        #: exploration noise into; allocated lazily on the first noisy
        #: competition so heads, serving engines and ``softmax`` layers pay
        #: nothing.
        self._noise: np.ndarray = None

    @cached_property
    def masked_weights(self) -> np.ndarray:
        return np.empty((self.n_input, self.n_hidden), dtype=np.float64)

    @cached_property
    def mean_x(self) -> np.ndarray:
        return np.empty(self.n_input, dtype=np.float64)

    @cached_property
    def mean_a(self) -> np.ndarray:
        return np.empty(self.n_hidden, dtype=np.float64)

    @cached_property
    def mean_outer(self) -> np.ndarray:
        return np.empty((self.n_input, self.n_hidden), dtype=np.float64)

    def gather_scratch(self, layout) -> np.ndarray:
        """The flat gather buffer for block-sparse dispatches (lazy).

        Sized for ``layout`` (a :class:`~repro.kernels.SparseLayout`): every
        block's active input columns for a full batch — the most one batched
        gather-GEMM reads.  Regrown when a later layout needs more.
        """
        size = self.batch_size * sum(layout.n_active_units)
        if self._gather is None or self._gather.size < size:
            self._gather = np.empty(size, dtype=np.float64)
        return self._gather

    def noise_scratch(self) -> np.ndarray:
        """The noise buffer of :func:`repro.kernels.compete_into` (lazy)."""
        if self._noise is None:
            self._noise = np.empty((self.batch_size, self.n_hidden), dtype=np.float64)
        return self._noise

    def accommodates(self, n_rows: int) -> bool:
        """Whether a batch of ``n_rows`` fits in the preallocated buffers."""
        return 0 < n_rows <= self.batch_size

    def nbytes(self) -> int:
        """Total bytes held by the workspace (for memory reports)."""
        lazy = ("masked_weights", "mean_x", "mean_a", "mean_outer", "_gather", "_noise")
        held = [self.support, self.activations] + [vars(self).get(name) for name in lazy]
        return int(sum(buffer.nbytes for buffer in held if buffer is not None))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"LayerWorkspace(n_input={self.n_input}, n_hidden={self.n_hidden}, "
            f"batch_size={self.batch_size}, {self.nbytes() / 1e6:.2f} MB)"
        )
