"""The streaming predictor: constant-memory bulk inference.

:class:`StreamingPredictor` drives a
:class:`~repro.datasets.stream.BatchStream` through
:class:`~repro.engine.LayerEngine.forward` with one preallocated
:class:`~repro.engine.LayerWorkspace` per hidden layer, so inference
over any input length runs at O(batch) memory and the steady-state loop
performs zero layer-sized allocations.  Its tile body
(:meth:`StreamingPredictor._tile`) is the only bulk forward in the
repo: ``Network.predict`` / ``predict_proba`` / ``transform`` / ``evaluate``
and the between-phase transforms of ``Network.fit`` run on a throw-away
predictor, ``Network.predict_stream`` on a cached one.  ``predict_stream``
and ``predict_proba_stream`` run their tiles on one lane per free core, at
most two (:func:`_lane_count`); every other caller runs on one.
Per-backend numerics equal the layers' own ``forward`` up to the backend's
declared precision (bit-for-bit on the NumPy backend at equal tile
boundaries — ``tests/serving`` and ``tests/core/test_network_memory.py`` enforce both).
"""

from __future__ import annotations

import os
import threading
from typing import List, Optional, Union

import numpy as np

from repro.core.execution import BackendExecutionMixin
from repro.datasets.stream import BatchStream
from repro.engine import ExecutionPlan, LayerEngine
from repro.exceptions import DataError, NotFittedError
from repro.utils.arrays import row_softmax
from repro.utils.validation import check_numeric_dtype, check_positive_int

__all__ = ["StreamingPredictor", "predict_stream", "predict_proba_stream"]

Source = Union[np.ndarray, BatchStream]

#: numpy's OpenBLAS pool size, read at the first multi-tile call (the pool
#: is per process, so is this cache).
_blas_threads: Optional[int] = None

#: Most lanes a stream runs on: lanes kept on a predictor stay allocated, and
#: more than two were never measured to pay for their workspaces.
_MAX_LANES = 2


def _openblas_threads() -> int:
    """numpy's bundled OpenBLAS pool size (read, never set); 0 on another BLAS."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*")):
        try:
            get_num_threads = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get_num_threads.argtypes, get_num_threads.restype = [], ctypes.c_int
        return int(get_num_threads())
    return 0


def _lanes_for(cores: int, blas: int) -> int:
    """One tile lane per ``blas`` cores, at most ``_MAX_LANES``; one lane on an
    unknown BLAS (``0``)."""
    return min(_MAX_LANES, max(1, cores // blas)) if blas > 0 else 1


def _lane_count() -> int:
    """Lanes a multi-tile stream runs on: the cores the BLAS pool leaves free."""
    global _blas_threads
    if _blas_threads is None:
        _blas_threads = _openblas_threads()
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return _lanes_for(cores, _blas_threads)


class _LayerStage:
    """One hidden layer bound to its streaming engine.

    The engine owns one workspace, its softmax in place over the support
    buffer (a stage never competes): the tile loop consumes each batch's
    activations before the next batch overwrites them.
    """

    def __init__(self, layer, backend, batch_size: int) -> None:
        self.layer = layer
        self.rebuild(backend, batch_size)

    def rebuild(self, backend, batch_size: int) -> None:
        self.engine = LayerEngine(backend, ExecutionPlan.for_traces(self.layer.traces, batch_size))
        workspace = self.engine.workspace
        workspace.activations = workspace.support

    def stale(self, backend, n_rows: int) -> bool:
        traces = self.layer.traces
        engine = self.engine
        return (
            engine.backend is not backend
            or not engine.matches(traces.n_input, tuple(traces.hidden_sizes))
            or not engine.accommodates(n_rows)
        )

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Hidden activations for one batch (a workspace view)."""
        layer = self.layer
        # Serving honours the layer's block-sparse execution plan: a sparse
        # layer streams through the gather-GEMM kernels (packed slabs shared
        # with training), a dense layer through the masked GEMM.  The dense
        # weight buffer is passed raw (``_weights``) so a sparse dispatch
        # never forces the full-matrix materialisation.
        sparse = layer.sparse_context() if hasattr(layer, "sparse_context") else None
        return self.engine.forward(
            x,
            layer._weights if sparse is not None else layer.weights,
            layer.bias,
            layer.mask_expanded,
            layer.hyperparams.bias_gain,
            # Weight buffers mutate in place across refreshes; the token
            # invalidates this stage's cached weights*mask product when the
            # layer is (re)trained between predict calls.
            weights_token=getattr(layer, "weights_token", None),
            sparse=sparse,
        )


class StreamingPredictor(BackendExecutionMixin):
    """Streams bulk inference for a fitted network at O(batch) memory.

    Parameters
    ----------
    network:
        A fitted (or at least built) :class:`~repro.core.network.Network`;
        duck-typed — any object with built ``hidden_layers`` and ``head``
        works.
    batch_size:
        Rows per streamed batch; peak intermediate memory is proportional to
        this, never to the input length.
    backend:
        Optional backend name or instance forced onto the whole stack.  When
        omitted (the default) every stage keeps *its layer's own* resolved
        backend — exactly the backends ``Network.predict`` would use, so the
        equivalence guarantee holds even for stacks with explicit per-layer
        backend choices.
    """

    #: ``BackendExecutionMixin.is_built`` reads ``traces``; the predictor has
    #: no traces of its own (it borrows the layers'), so pin the attribute.
    traces = None

    def __init__(self, network, batch_size: int = 1024, backend=None) -> None:
        head = getattr(network, "head", None)
        if head is None or not head.is_built:
            raise NotFittedError("StreamingPredictor requires a fitted network (built head)")
        for layer in network.hidden_layers:
            if not layer.is_built:
                raise NotFittedError(f"hidden layer '{layer.name}' has not been built")
            # Networks trained with stale-weights caching may hold weights a
            # few trace updates behind; serving reads the weight buffers, so
            # settle them once up front (a no-op on exactly-trained layers).
            if hasattr(layer, "flush_weights"):
                layer.flush_weights()
        self.network = network
        self.head = head
        self.batch_size = check_positive_int(batch_size, "batch_size")
        self.name = f"serving:{getattr(network, 'name', 'network')}"
        self._init_execution(backend)
        #: One stage list per tile lane, built on first use; lane 0's is
        #: ``_stages``, the one :meth:`hidden_tiles` runs on.
        self._lanes: List[List[_LayerStage]] = [self._new_lane()]
        self._stages = self._lanes[0]

    # ------------------------------------------------------------- backend
    def _stage_backend(self, layer):
        """The backend one stage dispatches on: the override, else the layer's."""
        return self._backend if self._backend is not None else layer.backend

    def _uniform_backend(self):
        """The single backend serving the whole stack, or ``None`` when the
        stages keep heterogeneous per-layer backends."""
        if self._backend is not None:
            return self._backend
        layers = self.network.hidden_layers
        if not layers:
            return None
        first = layers[0].backend
        if all(layer.backend is first for layer in layers[1:]):
            return first
        return None

    @property
    def backend(self):
        """The effective serving backend (first stage's for mixed stacks).

        Overrides the mixin property, which would *cache* a default NumPy
        instance on first read and thereby silently lock a per-layer stack
        into uniform-NumPy mode.
        """
        uniform = self._uniform_backend()
        if uniform is not None:
            return uniform
        layers = self.network.hidden_layers
        if layers:
            return layers[0].backend
        from repro.backend.registry import get_backend

        return get_backend(None)

    @backend.setter
    def backend(self, value) -> None:
        from repro.backend.registry import get_backend

        self._backend_spec = value
        self._backend = get_backend(value)

    # ------------------------------------------------------------- capacity
    def workspace_nbytes(self) -> int:
        """Total preallocated workspace bytes — independent of input length."""
        return sum(stage.engine.workspace.nbytes() for lane in self._lanes for stage in lane)

    def _new_lane(self) -> List[_LayerStage]:
        layers = self.network.hidden_layers
        return [_LayerStage(layer, self._stage_backend(layer), self.batch_size) for layer in layers]

    def _tile(self, stages: List[_LayerStage], batch, n_layers: Optional[int] = None):
        """``batch`` through a lane's first ``n_layers`` stages, rebuilding any
        that no longer fits; a view of the lane's last workspace."""
        hidden = batch.x
        for stage in stages[:n_layers]:
            effective = self._stage_backend(stage.layer)
            if stage.stale(effective, batch.size):
                stage.rebuild(effective, max(int(batch.size), self.batch_size))
            hidden = stage.forward(stage.layer.input_spec.validate_batch(hidden))
        return hidden

    # ------------------------------------------------------------- dispatch
    def hidden_tiles(self, source: Source, n_layers: Optional[int] = None):
        """Yield ``(batch, hidden)`` for every batch of ``source``, in order.

        The one-lane tile loop behind ``Network.predict`` / ``predict_proba``
        / ``decision_function`` / ``transform`` / the between-phase transform
        of ``Network.fit``.  ``hidden`` is the output
        of the first ``n_layers`` hidden layers (default: all of them) — a
        workspace view that the next tile overwrites, so consume or copy it
        before advancing.  Non-float64 rows are converted per tile.
        """
        for batch in self._as_stream(source):
            yield batch, self._tile(self._stages, batch, n_layers)

    def _scatter_batch(
        self, out: np.ndarray, batch, representation: np.ndarray, proba: bool
    ) -> None:
        """Head stage for one batch: decision + scatter into ``out``."""
        decision = self.head.decision_function(representation)
        if proba:
            out[batch.indices] = row_softmax(decision)
        else:
            out[batch.indices] = np.argmax(decision, axis=1)

    # ------------------------------------------------------------ front end
    def _as_stream(self, source: Source) -> BatchStream:
        if isinstance(source, BatchStream):
            if source.drop_last and source.n_samples % source.batch_size != 0:
                raise DataError(
                    "cannot stream predictions from a drop_last stream: the "
                    "tail rows would never receive a prediction"
                )
            return source
        x = check_numeric_dtype(source)
        if x.ndim != 2:
            raise DataError(f"predict_stream expects a 2-D matrix, got shape {x.shape}")
        return BatchStream(x, batch_size=self.batch_size)

    def _output(self, n_rows: int, proba: bool) -> np.ndarray:
        if proba:
            return np.empty((n_rows, self.head.n_classes), dtype=np.float64)
        return np.empty(n_rows, dtype=np.int64)

    def _stream(self, source: Source, proba: bool) -> np.ndarray:
        """Fill ``out`` from lanes that pull whole tiles off one stream.

        The caller's thread is lane 0; helper lanes live for this call (a
        one-tile stream has none).  The first failure is re-raised once every
        lane has stopped at its next tile.
        """
        stream = self._as_stream(source)
        out = self._output(stream.n_samples, proba)
        n_lanes = 1 if len(stream) < 2 else min(len(stream), _lane_count())
        while len(self._lanes) < n_lanes:
            self._lanes.append(self._new_lane())
        tiles = iter(stream)
        lock = threading.Lock()
        failures: List[BaseException] = []

        def run(stages: List[_LayerStage]) -> None:
            try:
                while not failures:
                    with lock:
                        batch = next(tiles, None)
                    if batch is None:
                        return
                    self._scatter_batch(out, batch, self._tile(stages, batch), proba)
            except BaseException as exc:  # re-raised in the caller
                failures.append(exc)

        helpers = [
            threading.Thread(target=run, args=(stages,), name="repro-predict-lane", daemon=True)
            for stages in self._lanes[1:n_lanes]
        ]
        for thread in helpers:
            thread.start()
        run(self._stages)
        for thread in helpers:
            thread.join()
        getattr(tiles, "close", lambda: None)()  # stops a prefetch thread early
        if failures:
            raise failures.pop(0)  # popped: the traceback's frame does not hold it
        return out

    def predict_stream(self, source: Source) -> np.ndarray:
        """Hard class predictions for a streamed source.

        Parameters
        ----------
        source:
            Either a 2-D feature matrix (streamed in ``batch_size``
            chunks) or a prebuilt
            :class:`BatchStream` (its own batching — including shuffle
            order — is respected, and results are scattered back to source
            order via the batch indices).

        Returns
        -------
        numpy.ndarray
            ``(n_samples,)`` integer class labels, in source order.
            Bit-for-bit equal to ``Network.predict`` on the NumPy backend.

        Raises
        ------
        DataError
            Rows do not match the first hidden layer's input spec, or
            ``source`` is not a 2-D real-valued matrix.
        BackendError
            A backend worker failed mid-stream.
        """
        return self._stream(source, proba=False)

    def predict_proba_stream(self, source: Source) -> np.ndarray:
        """Class-probability matrix, streamed at O(batch) memory.

        Same contract as :meth:`predict_stream` (parameters, raises,
        ordering) but returns the ``(n_samples, n_classes)``
        row-stochastic probability matrix instead of hard labels.
        """
        return self._stream(source, proba=True)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"StreamingPredictor(backend={self.backend.name}, "
            f"batch_size={self.batch_size}, stages={len(self._stages)}, "
            f"workspace={self.workspace_nbytes() / 1e6:.2f} MB)"
        )


def predict_stream(network, source: Source, batch_size: int = 1024, backend=None) -> np.ndarray:
    """One-shot helper: hard predictions for ``source`` at O(batch) memory."""
    predictor = StreamingPredictor(network, batch_size=batch_size, backend=backend)
    return predictor.predict_stream(source)


def predict_proba_stream(
    network, source: Source, batch_size: int = 1024, backend=None
) -> np.ndarray:
    """One-shot helper: class probabilities for ``source`` at O(batch) memory."""
    predictor = StreamingPredictor(network, batch_size=batch_size, backend=backend)
    return predictor.predict_proba_stream(source)
