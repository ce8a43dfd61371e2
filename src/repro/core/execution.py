"""Shared backend/engine plumbing for trainable BCPNN layers.

:class:`BackendExecutionMixin` hosts the logic that used to be duplicated
between :class:`~repro.core.layers.StructuralPlasticityLayer` and
:class:`~repro.core.heads.BCPNNClassifier`:

* backend resolution — a single point (``repro.backend.registry.get_backend``
  imported at module top; the historical per-method lazy imports are gone now
  that the backends no longer depend on ``repro.core``),
* network-level backend inheritance (:meth:`bind_backend`, used by
  ``Network(backend=...)`` to thread one backend instance through the stack),
* the streaming :class:`~repro.engine.LayerEngine` lifecycle — one engine
  per ``(layer, batch_size)``, rebuilt only when the backend or the layer
  shape changes or a larger batch arrives,
* the trace→weight refresh, streamed into the layer's persistent
  weight/bias buffers,
* the **block-sparse execution plan**: when a layer's structural-plasticity
  mask is sparse enough (density at or below
  :data:`repro.kernels.SPARSE_DENSITY_THRESHOLD`, decided in
  :meth:`BackendExecutionMixin._refresh_sparse_layout` whenever the mask
  changes), the per-batch trace→weight refresh packs only the active
  rows of each hidden hypercolumn into packed slabs
  (:func:`repro.kernels.pack_traces_to_weights`) and every forward dispatch
  runs gather-GEMMs over them.  The dense ``weights`` matrix then becomes a
  *lazily materialised* view: reading the :attr:`weights` property converts
  the traces on demand, so external consumers always observe exactly the
  values dense execution would have produced, while the hot loop never pays
  for silent connections.

Hosts must provide ``traces`` (a :class:`~repro.core.traces.ProbabilityTraces`
or ``None`` before build), ``weights``/``bias`` attributes, a ``name`` and a
``_trace_floor`` property.
"""

from __future__ import annotations

import threading
from typing import Optional

import numpy as np

from repro import kernels
from repro.backend.base import Backend
from repro.backend.registry import get_backend
from repro.engine import ExecutionPlan, LayerEngine
from repro.exceptions import NotFittedError

__all__ = ["BackendExecutionMixin"]


class BackendExecutionMixin:
    """Backend resolution + streaming engine shared by trainable layers."""

    # ------------------------------------------------------------- backend
    def _init_execution(self, backend=None) -> None:
        """Record the constructor-supplied backend choice."""
        self._backend_spec = backend
        self._backend: Optional[Backend] = (
            get_backend(backend) if backend is not None else None
        )
        self._engine: Optional[LayerEngine] = None
        # Engine construction options (see configure_execution): workspace
        # ring depth and the stale-weights tolerance.
        self._engine_options = {"n_buffers": 1, "weight_refresh_tol": 0.0}
        # Monotonic counter bumped on every weight refresh.  Weights are
        # mutated *in place*, so engines that are not this layer's own
        # (serving stages hold their own engine per layer) key their cached
        # weights*mask product on this token instead of buffer identity.
        self._weights_token = 0
        # Block-sparse execution state: the compiled mask layout (None when
        # the sparse plan is inactive), the packed weight slabs, and the two
        # staleness flags — packed slabs vs the dense weight matrix.
        self._sparse_layout = None
        self._packed_flat: Optional[np.ndarray] = None
        self._packed_blocks = None
        self._packed_stale = True
        self._sparse_bundle = None
        # (mask_token, SparseLayout) of the last payload_layout() call —
        # communication payload packing keyed on the mask generation.
        self._payload_layout_cache = None
        self._dense_stale = False
        self._weights: Optional[np.ndarray] = None
        # Serialises the lazy repack: thread-transport serving runs one
        # predictor per rank over the shared live layer, and two ranks must
        # not race writes into the shared slab buffers when a backend
        # switch or mask refresh left the pack stale.
        self._pack_lock = threading.Lock()

    @property
    def weights_token(self) -> int:
        """Refresh generation of the in-place-mutated weight buffers."""
        return self._weights_token

    @property
    def weights(self) -> Optional[np.ndarray]:
        """The dense weight matrix, materialised from the traces on demand.

        Under the sparse execution plan the per-batch refresh only packs the
        active rows, so the dense matrix can lag the traces; reading this
        property settles it first.  External readers therefore always see
        exactly the values dense execution would have produced, while the
        training hot path (which dispatches on the packed slabs) never pays
        the full-matrix conversion.
        """
        if self._dense_stale:
            self._refresh_dense_weights()
        return self._weights

    @weights.setter
    def weights(self, value) -> None:
        self._weights = value
        self._dense_stale = False

    @property
    def backend(self) -> Backend:
        """The resolved compute backend (defaults to the NumPy reference)."""
        if self._backend is None:
            self._backend = get_backend(None)
        return self._backend

    @backend.setter
    def backend(self, value) -> None:
        self._backend_spec = value
        self._backend = get_backend(value)
        self._engine = None
        # Packed slabs are backend-produced artifacts (a low-precision
        # backend quantises them), so a backend switch re-packs lazily.
        self._packed_stale = True

    def bind_backend(self, backend, force: bool = False) -> None:
        """Adopt a network-level backend unless one was explicitly chosen.

        ``Network(backend=...)`` threads its backend through every layer with
        this hook; a layer constructed with an explicit ``backend=`` argument
        keeps it unless ``force`` is set.
        """
        if backend is None:
            return
        if force or self._backend_spec is None:
            self._backend = get_backend(backend)
            self._engine = None
            self._packed_stale = True

    # ------------------------------------------------------------ lifecycle
    @property
    def is_built(self) -> bool:
        return self.traces is not None

    def _require_built(self) -> None:
        if not self.is_built:
            raise NotFittedError(f"layer '{self.name}' has not been built")

    # -------------------------------------------------------------- engine
    def configure_execution(
        self,
        n_buffers: Optional[int] = None,
        weight_refresh_tol: Optional[float] = None,
    ) -> None:
        """Set the engine options the next dispatches run with.

        ``n_buffers`` sizes the workspace ring (2+ = multi-buffering for the
        pipelined training path); ``weight_refresh_tol`` enables the
        engine's stale-weights caching (0 = exact, refresh every batch).  A
        change drops the current engine so the next dispatch rebuilds it
        with the new options; passing the current values is a no-op.
        """
        options = dict(self._engine_options)
        if n_buffers is not None:
            options["n_buffers"] = int(n_buffers)
        if weight_refresh_tol is not None:
            options["weight_refresh_tol"] = float(weight_refresh_tol)
        if options != self._engine_options:
            self._engine_options = options
            self._engine = None

    def engine_for(self, n_rows: int) -> LayerEngine:
        """The streaming engine for the current shape, sized for ``n_rows``.

        The workspace is allocated once per ``(layer, batch_size)`` and
        reused; smaller remainder batches run in leading slices of the same
        buffers, larger batches grow the plan.
        """
        self._require_built()
        traces = self.traces
        engine = self._engine
        if (
            engine is None
            or engine.backend is not self.backend
            or not engine.matches(traces.n_input, tuple(traces.hidden_sizes))
            or not engine.accommodates(n_rows)
        ):
            previous = engine.plan.batch_size if engine is not None else 0
            plan = ExecutionPlan.for_traces(traces, max(int(n_rows), previous))
            engine = LayerEngine(self.backend, plan, **self._engine_options)
            self._engine = engine
        return engine

    def _reset_engine(self) -> None:
        self._engine = None

    # ------------------------------------------------------- sparse layout
    def _sparse_source(self):
        """Hook: ``(mask, input_sizes, hidden_sizes)`` or ``None``.

        Layers with a structural-plasticity mask override this; heads have
        no mask, so the sparse plan never activates for them.
        """
        return None

    def _refresh_sparse_layout(self) -> None:
        """(Re)compile the mask layout and decide the execution plan.

        The one place the dense-vs-sparse choice is made: the compiled
        layout is kept iff its density is at or below
        :data:`repro.kernels.SPARSE_DENSITY_THRESHOLD`
        (:func:`repro.kernels.sparse_beneficial`); every engine, serving
        stage and worker replica follows from whether the layer hands out a
        :class:`~repro.kernels.SparseWeights` bundle.  Called whenever the
        mask changes.  Compiling a fresh :class:`~repro.kernels.SparseLayout`
        changes the layout identity, which invalidates every engine cache
        keyed on it; the packed slabs are marked stale and re-packed lazily
        on the next sparse dispatch (from the current traces — at ``tol=0``
        the traces are exactly the ones the last refresh used, so the
        repack is bit-identical to gathering the dense weights).
        """
        source = self._sparse_source()
        layout = kernels.SparseLayout(*source) if source is not None else None
        if not kernels.sparse_beneficial(layout):
            layout = None
        self._sparse_layout = layout
        self._packed_blocks = None
        self._packed_stale = True
        self._sparse_bundle = None
        if layout is None and self._dense_stale:
            # Leaving sparse mode: settle the dense matrix so dense
            # dispatches observe the current traces.
            self._refresh_dense_weights()

    @property
    def sparse_active(self) -> bool:
        """Whether the block-sparse execution plan serves this layer."""
        return self._sparse_layout is not None

    @property
    def sparse_layout(self):
        """The compiled mask layout (``None`` when the plan is inactive)."""
        return self._sparse_layout

    def payload_layout(self):
        """A :class:`~repro.kernels.SparseLayout` of the *current* mask.

        Unlike :attr:`sparse_layout` this is independent of the execution
        plan: communication payload packing (sparse-packed allreduce in
        :func:`repro.backend.distributed.train_layer_program`) wants the
        mask's index structure even when execution stays dense.  Cached on
        the mask generation token, so repeated calls between structural-
        plasticity steps are free.  Returns ``None`` for hosts without a
        mask.
        """
        source = self._sparse_source()
        if source is None:
            return None
        token = getattr(self, "mask_token", None)
        cached = self._payload_layout_cache
        if cached is not None and token is not None and cached[0] == token:
            return cached[1]
        layout = kernels.SparseLayout(*source)
        self._payload_layout_cache = (token, layout)
        return layout

    def sparse_context(self):
        """The :class:`~repro.kernels.SparseWeights` bundle for a dispatch.

        Returns ``None`` when the sparse plan is inactive.  Ensures the
        packed slabs exist (they are packed lazily after a mask or backend
        change); a *stale-weights* skip is honoured — the slabs are only
        repacked when a refresh actually happened or the layout changed,
        mirroring the dense path's stale weight buffers bit for bit.
        """
        layout = self._sparse_layout
        if layout is None:
            return None
        if self._packed_blocks is None or self._packed_stale:
            # Double-checked: the hot loop never takes the lock once the
            # slabs are fresh; concurrent first-touch packers serialise.
            with self._pack_lock:
                if self._packed_blocks is None or self._packed_stale:
                    self._pack_weights()
        bundle = self._sparse_bundle
        if (
            bundle is None
            or bundle.layout is not layout
            or bundle.flat is not self._packed_flat
        ):
            bundle = kernels.SparseWeights(layout, self._packed_blocks, self._packed_flat)
            self._sparse_bundle = bundle
        return bundle

    def _pack_weights(self) -> None:
        """Sparse refresh: pack active-row weights + bias from the traces."""
        self._require_built()
        layout = self._sparse_layout
        traces = self.traces
        if self._packed_flat is None or self._packed_flat.size != layout.packed_size:
            self._packed_flat = np.empty(layout.packed_size, dtype=np.float64)
            self._packed_blocks = None
        if self._packed_blocks is None:
            self._packed_blocks = layout.block_views(self._packed_flat)
        out_bias = (
            self.bias
            if isinstance(self.bias, np.ndarray) and self.bias.shape == traces.p_j.shape
            else None
        )
        blocks, bias = self.backend.pack_weights(
            traces.p_i,
            traces.p_j,
            traces.p_ij,
            layout,
            self._trace_floor,
            out_blocks=self._packed_blocks,
            out_bias=out_bias,
        )
        self._packed_blocks = blocks
        self.bias = bias
        self._packed_stale = False

    # ------------------------------------------------------------- weights
    def refresh_weights(self) -> None:
        """Recompute weights/bias from the current traces.

        Under the sparse plan only the packed slabs (plus the bias) are
        refreshed — the log-heavy conversion never touches silent
        connections — and the dense matrix is marked stale for lazy
        materialisation through the :attr:`weights` property.  Dense mode
        streams the conversion into the persistent weight/bias buffers when
        their shapes still match, so the once-per-batch refresh does not
        allocate on the hot path.  ``weights``/``bias`` are mutated in place
        across refreshes — snapshot with ``.copy()`` if you need a
        before/after comparison.
        """
        self._require_built()
        if self.sparse_active:
            self._pack_weights()
            self._dense_stale = True
        else:
            self._refresh_dense_weights()
        self._weights_token += 1
        if self._engine is not None:
            # Reset the stale-weights accumulator and invalidate the cached
            # weights*mask products (the weight buffers just changed).
            self._engine.note_weights_refreshed()

    def _refresh_dense_weights(self) -> None:
        """Full dense trace->weight conversion into the persistent buffers."""
        traces = self.traces
        out_w = (
            self._weights
            if isinstance(self._weights, np.ndarray)
            and self._weights.shape == traces.p_ij.shape
            else None
        )
        out_b = (
            self.bias
            if isinstance(self.bias, np.ndarray) and self.bias.shape == traces.p_j.shape
            else None
        )
        self._weights, self.bias = self.backend.traces_to_weights(
            traces.p_i,
            traces.p_j,
            traces.p_ij,
            self._trace_floor,
            out_weights=out_w,
            out_bias=out_b,
        )
        self._dense_stale = False

    def flush_weights(self) -> None:
        """Refresh weights iff trace updates were applied since the last
        refresh, and settle the dense matrix if the sparse plan deferred it.

        The closing bracket of stale-weights training and of sparse
        training: call at a phase boundary (end of a training phase, before
        handing the layer to inference) so consumers of ``weights``/``bias``
        always observe the current traces.  A no-op when everything is
        already fresh — in particular after any dense
        ``weight_refresh_tol=0`` training.
        """
        if not self.is_built:
            return
        if self._engine is not None and self._engine.weights_stale:
            self.refresh_weights()
        if self._dense_stale:
            self._refresh_dense_weights()
