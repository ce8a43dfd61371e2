"""Execution plans and the per-layer streaming engine.

An :class:`ExecutionPlan` captures the static shape of one layer's per-batch
computation — input width, hidden hypercolumn layout and the maximum batch
size — and knows how to allocate the matching :class:`LayerWorkspace`.  A
:class:`LayerEngine` binds a plan to a compute backend and streams batches
through the backend's fused entry points, so the layer code contains no
per-batch arithmetic: one ``fused_update`` dispatch per training batch, one
``forward`` dispatch per inference batch.

The engine is rebuilt only when something static changes (backend swapped,
layer rebuilt with new sizes, batch larger than planned); remainder batches
reuse leading slices of the same buffers.

Two optional behaviours power the pipelined training path
(:mod:`repro.engine.pipeline`):

* ``n_buffers > 1`` — the engine owns a ring of workspaces and alternates
  between them per dispatch, so the activations returned for batch ``k``
  stay valid while batch ``k+1`` computes into the sibling buffer.  This is
  the invariant a pipelined consumer (entropy reduction on a background
  thread, an overlapped serving head stage) relies on.
* ``weight_refresh_tol > 0`` — stale-weights caching: the engine accumulates
  the ``taupdt``-scaled trace drift applied since the last
  ``traces_to_weights`` refresh and reports through
  :meth:`LayerEngine.should_refresh_weights` whether the accumulated drift
  exceeded the tolerance.  ``tol = 0`` (the default) always refreshes —
  bit-for-bit identical to refreshing after every batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from repro import kernels
from repro.backend.base import Backend
from repro.engine.workspace import LayerWorkspace
from repro.exceptions import ConfigurationError

__all__ = ["ExecutionPlan", "LayerEngine"]


@dataclass(frozen=True)
class ExecutionPlan:
    """Static shape of one layer's batched execution.

    Parameters
    ----------
    n_input:
        Number of input units feeding the layer.
    hidden_sizes:
        Hypercolumn layout of the layer's output (``(n_classes,)`` for a
        supervised head).
    batch_size:
        Largest batch the workspace must accommodate.
    """

    n_input: int
    hidden_sizes: Tuple[int, ...]
    batch_size: int

    def __post_init__(self) -> None:
        if self.n_input <= 0 or self.batch_size <= 0 or not self.hidden_sizes:
            raise ConfigurationError(f"invalid execution plan: {self}")
        if any(int(s) <= 0 for s in self.hidden_sizes):
            raise ConfigurationError("hidden sizes must be positive")

    @property
    def n_hidden(self) -> int:
        return int(sum(self.hidden_sizes))

    @classmethod
    def for_traces(cls, traces, batch_size: int) -> "ExecutionPlan":
        """Plan matching a :class:`~repro.core.traces.ProbabilityTraces` layout."""
        return cls(
            n_input=int(traces.n_input),
            hidden_sizes=tuple(int(s) for s in traces.hidden_sizes),
            batch_size=int(batch_size),
        )

    def allocate(self) -> LayerWorkspace:
        """Allocate the workspace buffers this plan requires."""
        return LayerWorkspace(self.n_input, self.n_hidden, self.batch_size)


class LayerEngine:
    """Streams batches of one layer's arithmetic through a compute backend.

    The engine owns the workspace(s) for its plan and forwards every dispatch
    to the backend's fused, ``out=``-style primitives.  Buffers returned by
    :meth:`forward` / :meth:`fused_update` are views into a workspace and
    remain valid until that workspace's next dispatch — with ``n_buffers=1``
    (the default) that is the very next dispatch, with ``n_buffers=2`` the
    dispatch after it (double buffering).

    Parameters
    ----------
    backend:
        The compute backend dispatched to.
    plan:
        The static :class:`ExecutionPlan`.
    n_buffers:
        Number of workspaces in the ring (1 = classic single-buffer
        behaviour, 2 = double buffering for pipelined consumers).
    weight_refresh_tol:
        Stale-weights tolerance.  ``0`` (default): refresh after every trace
        update (exact, bit-for-bit the historical behaviour).  ``> 0``: the
        engine accumulates the applied ``taupdt``-scaled drift of the
        *marginal* traces since the last refresh and only asks for a
        ``traces_to_weights`` refresh once the accumulated drift exceeds the
        tolerance.  This is a heuristic staleness bound — marginal drift
        tracks joint-trace drift closely for probability-normalised traces
        but does not bound it — so ``tol > 0`` is approximate training
        (validated to epsilon-accuracy by the E9 tests), while ``tol = 0``
        is exact.
    """

    def __init__(
        self,
        backend: Backend,
        plan: ExecutionPlan,
        n_buffers: int = 1,
        weight_refresh_tol: float = 0.0,
    ) -> None:
        if not isinstance(backend, Backend):
            raise ConfigurationError("LayerEngine requires a Backend instance")
        if int(n_buffers) < 1:
            raise ConfigurationError("n_buffers must be at least 1")
        if float(weight_refresh_tol) < 0.0:
            raise ConfigurationError("weight_refresh_tol must be non-negative")
        self.backend = backend
        self.plan = plan
        self.n_buffers = int(n_buffers)
        self.weight_refresh_tol = float(weight_refresh_tol)
        self.workspaces: Tuple[LayerWorkspace, ...] = tuple(
            plan.allocate() for _ in range(self.n_buffers)
        )
        self._cursor = 0
        # Stale-weights accounting: accumulated taupdt-scaled trace drift
        # since the last traces_to_weights refresh.  Starts at infinity so a
        # freshly built engine always requests an initial refresh.
        self._staleness = float("inf")
        self._weights_version = 0
        # Per-workspace provenance of the cached weights*mask product:
        # (weights object, mask object, weights version).  Holding the object
        # references (not ids) makes the identity test immune to id reuse.
        self._masked_src = [None] * self.n_buffers

    # ------------------------------------------------------------ capacity
    @property
    def workspace(self) -> LayerWorkspace:
        """The workspace the *next* dispatch will write into."""
        return self.workspaces[self._cursor]

    def accommodates(self, n_rows: int) -> bool:
        return self.workspaces[0].accommodates(n_rows)

    def matches(self, n_input: int, hidden_sizes: Tuple[int, ...]) -> bool:
        """Whether the plan still matches a layer's (possibly rebuilt) shape."""
        return self.plan.n_input == int(n_input) and self.plan.hidden_sizes == tuple(
            int(s) for s in hidden_sizes
        )

    # ------------------------------------------------------- stale weights
    @property
    def weights_stale(self) -> bool:
        """Whether trace updates were applied since the last weight refresh."""
        return self._staleness > 0.0

    def should_refresh_weights(self) -> bool:
        """Whether the accumulated trace drift warrants a weight refresh.

        Always ``True`` at ``weight_refresh_tol = 0`` (exact mode).
        """
        if self.weight_refresh_tol <= 0.0:
            return True
        return self._staleness > self.weight_refresh_tol

    def note_weights_refreshed(self) -> None:
        """Record that the layer recomputed weights/bias from the traces.

        Resets the staleness accumulator and invalidates every cached
        ``weights * mask`` product (the weight buffers are mutated in
        place, so the products no longer match).
        """
        self._staleness = 0.0
        self._weights_version += 1

    def _note_trace_update(self, mean_x, mean_a, traces, taupdt: float) -> None:
        """Count one trace update and accumulate the drift it applied.

        ``kernels.ema_update`` leaves ``mean_x``/``mean_a`` holding the
        *taupdt-scaled* batch means and the traces holding the post-update
        values, so the applied max-norm marginal drift is
        ``max|scaled_mean - taupdt * p_new| / (1 - taupdt)``.
        """
        traces.updates_seen += 1
        if self.weight_refresh_tol <= 0.0:
            # Exact mode: no accounting needed beyond "an update happened".
            self._staleness = float("inf")
            return
        t = float(taupdt)
        if t >= 1.0:
            self._staleness = float("inf")
            return
        drift_x = float(np.max(np.abs(mean_x - t * traces.p_i)))
        drift_a = float(np.max(np.abs(mean_a - t * traces.p_j)))
        self._staleness += max(drift_x, drift_a) / (1.0 - t)

    # ----------------------------------------------------------- dispatch
    def _next_workspace(
        self,
        weights: Optional[np.ndarray],
        mask_expanded: Optional[np.ndarray],
        weights_token: Optional[int] = None,
        sparse=None,
    ) -> LayerWorkspace:
        """Advance the workspace ring and sync its masked-product cache.

        A workspace's ``masked_weights`` buffer stays valid as long as the
        same weight buffer (at the same refresh generation) and the same
        mask object are dispatched; any change flips ``masked_valid`` off so
        the backend recomputes the product (and re-marks it valid).  On a
        sparse dispatch the packed flat buffer and the compiled layout play
        the roles of the weight buffer and the mask: a repack into a new
        buffer or a layout recompile (structural-plasticity mask change)
        invalidates the cache the same way.

        The weight buffers are mutated *in place* by refreshes, so buffer
        identity alone cannot witness freshness.  Two generation counters
        cover the two ownership cases: this engine's own ``_weights_version``
        (bumped by :meth:`note_weights_refreshed` — the layer notifies its
        own training engine) and the caller-supplied ``weights_token`` (the
        layer-level refresh counter, passed by engines the layer does *not*
        own, e.g. serving stages, so a refresh between predict calls
        invalidates their cache too).
        """
        index = self._cursor
        ws = self.workspaces[index]
        self._cursor = (index + 1) % self.n_buffers
        if sparse is not None:
            key_weights, key_mask = sparse.flat, sparse.layout
        else:
            key_weights, key_mask = weights, mask_expanded
        if key_mask is None:
            ws.masked_valid = False
            self._masked_src[index] = None
            return ws
        src = self._masked_src[index]
        key = (key_weights, key_mask, self._weights_version, weights_token)
        if (
            src is None
            or src[0] is not key[0]
            or src[1] is not key[1]
            or src[2:] != key[2:]
        ):
            ws.masked_valid = False
            self._masked_src[index] = key
        return ws

    def forward(
        self,
        x: np.ndarray,
        weights: np.ndarray,
        bias: np.ndarray,
        mask_expanded: Optional[np.ndarray],
        bias_gain: float = 1.0,
        weights_token: Optional[int] = None,
        sparse=None,
    ) -> np.ndarray:
        """Hidden activations for a batch, written into the next workspace.

        ``sparse`` is an optional :class:`~repro.kernels.SparseWeights`
        bundle: when one is given the backend serves the batch through the
        block-sparse gather-GEMM kernels, otherwise through the dense
        masked GEMM.
        """
        n_rows = np.asarray(x).shape[0]
        ws = self._next_workspace(weights, mask_expanded, weights_token, sparse)
        return self.backend.forward_into(
            x,
            weights,
            bias,
            mask_expanded,
            self.plan.hidden_sizes,
            bias_gain,
            out=ws.activations[:n_rows],
            workspace=ws,
            sparse=sparse,
        )

    def fused_update(
        self,
        x: np.ndarray,
        weights: np.ndarray,
        bias: np.ndarray,
        mask_expanded: Optional[np.ndarray],
        bias_gain: float,
        traces,
        taupdt: float,
        activity_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        sparse=None,
    ) -> np.ndarray:
        """One fused training dispatch: forward + statistics + trace update.

        Mutates ``traces`` in place and returns the forward activations (a
        workspace view).  The trace statistics stay dense even on a sparse
        dispatch (structural plasticity scores silent connections from the
        full joint trace); only the forward side of the step is sparse, and
        only when a ``sparse`` bundle is given.
        """
        ws = self._next_workspace(weights, mask_expanded, sparse=sparse)
        activations = self.backend.fused_update(
            x,
            weights,
            bias,
            mask_expanded,
            self.plan.hidden_sizes,
            bias_gain,
            traces.p_i,
            traces.p_j,
            traces.p_ij,
            taupdt,
            activity_fn=activity_fn,
            workspace=ws,
            sparse=sparse,
        )
        self._note_trace_update(ws.mean_x, ws.mean_a, traces, taupdt)
        return activations

    def update_traces(self, x: np.ndarray, a: np.ndarray, traces, taupdt: float) -> None:
        """Fused statistics + trace update for precomputed activity ``a``.

        This is the supervised-head path: the target activity is known ahead
        of time (one-hot labels), so no forward pass is dispatched.
        """
        ws = self._next_workspace(None, None)
        self.backend.update_traces(
            x, a, traces.p_i, traces.p_j, traces.p_ij, taupdt, workspace=ws
        )
        self._note_trace_update(ws.mean_x, ws.mean_a, traces, taupdt)

    def apply_means(self, traces, mean_x, mean_a, mean_outer, taupdt: float) -> None:
        """Trace update from batch means computed elsewhere.

        The data-parallel path: the means come out of the allreduce of every
        rank's shard statistics, and the update, the counter and the drift
        accounting are the ones :meth:`fused_update` applies.  The means are
        scratch — ``kernels.ema_update`` scales them in place.
        """
        kernels.ema_update(traces.p_i, traces.p_j, traces.p_ij, mean_x, mean_a, mean_outer, taupdt)
        self._note_trace_update(mean_x, mean_a, traces, taupdt)
