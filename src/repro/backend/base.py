"""Backend interface.

A backend supplies the numerical primitives of the BCPNN training loop.  The
split mirrors StreamBrain: layers own state (traces, masks, weights) and the
backend owns *how* the arithmetic is executed.  Every backend must be
numerically equivalent to :class:`repro.backend.numpy_backend.NumpyBackend`
up to its declared precision — a property the test-suite enforces.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro import kernels
from repro.exceptions import BackendError

__all__ = ["Backend", "KernelStatistics"]

#: Serialises forward counts: bulk inference dispatches one backend from
#: several tile lanes at once.
_FORWARD_COUNT_LOCK = threading.Lock()


@dataclass
class KernelStatistics:
    """Operation counters maintained by backends (used by cost reports)."""

    forward_calls: int = 0
    statistics_calls: int = 0
    weight_updates: int = 0
    elements_processed: int = 0

    def count_forward(self, n_rows: int, n_hidden: int) -> None:
        """Count one forward dispatch of ``n_rows`` rows into ``n_hidden`` units."""
        with _FORWARD_COUNT_LOCK:
            self.forward_calls += 1
            self.elements_processed += int(n_rows) * int(n_hidden)


class Backend:
    """Abstract compute backend.

    Subclasses must implement :meth:`forward`, :meth:`batch_statistics` and
    :meth:`traces_to_weights`.  ``precision`` is advisory metadata used by
    reports and tests.
    """

    #: Human-readable backend name (used by the registry and reports).
    name: str = "abstract"
    #: Working precision of the backend ("float64", "float32", "float16", "posit16").
    precision: str = "float64"

    def __init__(self) -> None:
        self.stats = KernelStatistics()

    # ------------------------------------------------------------ kernels
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
        """Masked support GEMM followed by per-hypercolumn softmax.

        ``sparse`` is an optional :class:`repro.kernels.SparseWeights`
        bundle (compiled mask layout + packed weight slabs), served with
        gather-GEMMs.
        """
        raise NotImplementedError

    def batch_statistics(
        self, x: np.ndarray, a: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batch-mean marginals and co-activation matrix for the trace update."""
        raise NotImplementedError

    def traces_to_weights(
        self,
        p_i: np.ndarray,
        p_j: np.ndarray,
        p_ij: np.ndarray,
        trace_floor: float = 1e-12,
        out_weights: Optional[np.ndarray] = None,
        out_bias: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Convert probability traces into weights and biases.

        ``out_weights``/``out_bias`` receive the results when given so the
        per-batch weight refresh can reuse the layer's persistent buffers.
        """
        raise NotImplementedError

    # ----------------------------------------------------- fused primitives
    #
    # The streaming execution engine (:mod:`repro.engine`) drives training
    # through these three entry points.  ``workspace`` is duck-typed: any
    # object exposing the preallocated buffers of
    # :class:`repro.engine.LayerWorkspace` (``support``, ``activations``,
    # ``masked_weights``, ``mean_x``, ``mean_a``, ``mean_outer``) works.
    # The base implementations compose the three abstract kernels, so every
    # backend gets a numerically-faithful fused path for free; subclasses
    # override them to exploit buffer reuse (NumPy).
    #
    # Two workspace conventions support the pipelined engine:
    #
    # * masked-product cache — a workspace-aware backend that computes the
    #   ``weights * mask`` product into ``workspace.masked_weights`` must
    #   honour ``workspace.masked_valid``: when the flag is set the cached
    #   product is current (the engine clears it whenever the weight buffer
    #   is refreshed or the mask object changes) and the multiply is
    #   skipped; after writing the product the backend sets the flag.
    #   Backends that never read ``masked_weights`` simply leave the flag
    #   alone (they recompute, which is always correct).
    # * scaled-mean convention — after ``update_traces`` with a workspace,
    #   ``workspace.mean_x``/``mean_a`` hold the *taupdt-scaled* batch means
    #   (``kernels.ema_update`` scales its inputs in place); the engine's
    #   stale-weights accounting reads them to accumulate the applied trace
    #   drift.

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
        """``out=``-style forward: hidden activations written into ``out``.

        The default implementation delegates to :meth:`forward` and copies;
        workspace-aware backends override it to compute in place.
        """
        activations = self.forward(
            x, weights, bias, mask_expanded, hidden_sizes, bias_gain, sparse=sparse
        )
        if out is None:
            return activations
        np.copyto(out, activations)
        return out

    def pack_weights(
        self,
        p_i: np.ndarray,
        p_j: np.ndarray,
        p_ij: np.ndarray,
        layout,
        trace_floor: float = 1e-12,
        out_blocks=None,
        out_bias: Optional[np.ndarray] = None,
    ):
        """Sparse trace->weight refresh into packed per-block slabs.

        The sparse counterpart of :meth:`traces_to_weights`: only the active
        rows of each hidden block are converted (identical scalar operations
        per entry, so packed values are bitwise equal to gathering the dense
        weight matrix).  Backends with a working-precision contract override
        this to quantise the slabs.
        """
        self.stats.weight_updates += 1
        return kernels.pack_traces_to_weights(
            p_i, p_j, p_ij, layout, trace_floor, out_blocks=out_blocks, out_bias=out_bias
        )

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
        """Batch statistics + in-place EMA trace update in one dispatch.

        Mutates the trace arrays directly (``p <- (1-taupdt) p + taupdt mean``).
        ``a`` may be a :class:`repro.kernels.OneHotActivity` (the ``sample``
        competition's winners); it is densified once here, into the
        workspace's idle support buffer, so every ``batch_statistics``
        implementation keeps receiving a matrix.  Backends with an index
        path (NumPy) override this method and consume the winners directly.
        """
        if isinstance(a, kernels.OneHotActivity):
            a = a.dense(out=None if workspace is None else workspace.support[: a.shape[0]])
        mean_x, mean_a, mean_outer = self.batch_statistics(x, a)
        kernels.ema_update(p_i, p_j, p_ij, mean_x, mean_a, mean_outer, taupdt)
        if workspace is not None:
            # Publish the taupdt-scaled means (ema_update scaled them in
            # place) for the engine's stale-weights drift accounting.
            np.copyto(workspace.mean_x, mean_x, casting="unsafe")
            np.copyto(workspace.mean_a, mean_a, casting="unsafe")

    def fused_update(
        self,
        x: np.ndarray,
        weights: np.ndarray,
        bias: np.ndarray,
        mask_expanded: np.ndarray,
        hidden_sizes: Sequence[int],
        bias_gain: float,
        p_i: np.ndarray,
        p_j: np.ndarray,
        p_ij: np.ndarray,
        taupdt: float,
        activity_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        workspace=None,
        sparse=None,
    ) -> np.ndarray:
        """One fused training step: forward + batch statistics + trace update.

        ``activity_fn`` maps the forward activations to the training activity
        (the layer's competition rule: a dense matrix or a
        :class:`repro.kernels.OneHotActivity`); ``None`` trains on the
        activations themselves.  Returns the forward activations — a view into the
        workspace when one is supplied, valid until the next dispatch.

        On a sparse dispatch only the forward side goes through the packed
        slabs; the statistics/EMA stay dense because the joint trace must
        keep silent-connection statistics for structural plasticity.
        """
        out = None
        if workspace is not None:
            out = workspace.activations[: np.asarray(x).shape[0]]
        activations = self.forward_into(
            x, weights, bias, mask_expanded, hidden_sizes, bias_gain,
            out=out, workspace=workspace, sparse=sparse,
        )
        activity = activations if activity_fn is None else activity_fn(activations)
        self.update_traces(x, activity, p_i, p_j, p_ij, taupdt, workspace=workspace)
        return activations

    # --------------------------------------------------------------- misc
    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(name={self.name!r}, precision={self.precision!r})"

    # ------------------------------------------------------------- helpers
    def _require_2d(self, array: np.ndarray, name: str) -> np.ndarray:
        array = np.asarray(array)
        if array.ndim != 2:
            raise BackendError(f"{self.name} backend: {name} must be 2-D, got {array.shape}")
        return array
