"""The streaming predictor: constant-memory, rank-sharded bulk inference.

:class:`StreamingPredictor` drives a
:class:`~repro.datasets.stream.BatchStream` through
:class:`~repro.engine.LayerEngine.forward` with preallocated (optionally
double-buffered) :class:`~repro.engine.LayerWorkspace` buffers, so inference
over any input length runs at O(batch) memory and the steady-state loop
performs zero layer-sized allocations.  Its tile loop
(:meth:`StreamingPredictor.hidden_tiles`) is the only bulk forward in the
repo: ``Network.predict`` / ``predict_proba`` / ``transform`` / ``evaluate``
and the between-phase transforms of ``Network.fit`` run on a throw-away
predictor, ``Network.predict_stream`` on a cached one.  Per-backend numerics
equal the layers' own ``forward`` up to the backend's declared precision
(bit-for-bit on the NumPy backend at equal tile boundaries —
``tests/serving`` and ``tests/core/test_network_memory.py`` enforce both).

With ``comm=`` (a :class:`repro.comm.Communicator`) serving is **multi-rank**:
the rows are scattered over the communicator ranks through
:meth:`~repro.comm.Communicator.scatter_rows`, every rank (worker
threads/processes included; rank 0 is the driver, inline) streams its shard
through its own replica, and the per-rank outputs are combined with a
**single** ``allgather`` — one gather per call, independent of the number of
batches.  On the tcp transport the model crosses the process boundary once
per model version as a broadcast npz blob (raw frames, no pickling of live
layers).
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

import numpy as np

from repro.backend.distributed import resolve_backend_name
from repro.comm import Communicator
from repro.core.execution import BackendExecutionMixin
from repro.datasets.stream import BatchStream
from repro.engine import ExecutionPlan, LayerEngine, PipelineWorker
from repro.exceptions import DataError, NotFittedError
from repro.utils.arrays import row_softmax
from repro.utils.validation import check_positive_int

__all__ = ["StreamingPredictor", "predict_stream", "predict_proba_stream"]

Source = Union[np.ndarray, BatchStream]


#: Worker-process-resident model replica: ``{"token": ..., "network": ...}``.
#: ``TCPComm`` workers are persistent, so a replica rebuilt from one
#: predict call's broadcast blob can serve every subsequent call until the
#: driver's model actually changes (detected through the serving refresh
#: token) — the blob then stops crossing the process boundary entirely.
_REPLICA_CACHE: dict = {}


def _predict_shard_program(
    comm: Communicator,
    predictor: Optional["StreamingPredictor"],
    network,
    x: Optional[np.ndarray],
    blob: Optional[np.ndarray],
    ship_model: bool,
    batch_size: int,
    backend_spec,
    proba: bool,
    pipeline: bool = False,
    ship_blob: bool = True,
    model_token=None,
) -> Optional[np.ndarray]:
    """One rank's share of comm-sharded bulk inference.

    Rank 0 (the driver) streams its shard through the live predictor.
    Worker ranks obtain the model one of three ways: thread ranks share the
    driver's address space and read the live ``network`` directly (forward
    passes never mutate layer state, and each rank owns its own engine
    workspaces); tcp ranks receive it as a broadcast npz blob
    (``ship_model=True, ship_blob=True``) and rebuild a local replica —
    raw array frames, never pickled — which they then *cache* keyed on
    the driver's serving refresh token, so repeat calls with an unchanged
    model skip the broadcast and the rebuild entirely
    (``ship_blob=False``).  The per-rank outputs are combined with one
    ragged ``allgather`` (no padding needed — shapes travel with the
    payload), and only rank 0 materialises the final result, so nothing
    layer-sized is ever pickled back to the driver.
    """
    if ship_model and ship_blob:
        blob = comm.bcast(blob, root=0)
    shard = comm.scatter_rows(x, root=0)
    if predictor is None:
        if network is None:
            if ship_blob:
                from repro.core.serialization import network_from_bytes

                network = network_from_bytes(blob.tobytes())
                _REPLICA_CACHE["token"] = model_token
                _REPLICA_CACHE["network"] = network
            else:
                if _REPLICA_CACHE.get("token") != model_token:
                    raise DataError(
                        "worker replica cache miss: the driver skipped the model "
                        "broadcast but this worker holds no replica for token "
                        f"{model_token!r}"
                    )
                network = _REPLICA_CACHE["network"]
        # The predictor (engines + workspaces) is cached alongside the
        # replica so repeat calls also reuse warm workspaces.
        pred_key = (model_token, int(batch_size), backend_spec, bool(pipeline))
        if network is _REPLICA_CACHE.get("network") and (
            _REPLICA_CACHE.get("predictor_key") == pred_key
        ):
            predictor = _REPLICA_CACHE["predictor"]
        else:
            predictor = StreamingPredictor(
                network, batch_size=batch_size, backend=backend_spec, pipeline=pipeline
            )
            if network is _REPLICA_CACHE.get("network"):
                _REPLICA_CACHE["predictor"] = predictor
                _REPLICA_CACHE["predictor_key"] = pred_key
    local = predictor._stream_local(shard, proba)
    gathered = comm.allgather(local)
    if comm.rank != 0:
        return None
    return np.concatenate(gathered, axis=0)


class _LayerStage:
    """One hidden layer bound to its streaming engine(s).

    With ``n_buffers > 1`` the stage alternates engines (each owning one
    workspace) per batch ordinal, so batch ``k``'s activations stay valid
    while batch ``k+1`` is computed into the other buffer — the invariant a
    pipelined consumer (one that holds the previous batch's view while the
    next is in flight) needs.  The sequential ``predict_stream`` loop
    consumes each batch before the next starts, so it defaults to a single
    buffer.
    """

    def __init__(self, layer, backend, batch_size: int, n_buffers: int) -> None:
        self.layer = layer
        self.engines: Tuple[LayerEngine, ...] = ()
        self.rebuild(backend, batch_size, n_buffers)

    def rebuild(self, backend, batch_size: int, n_buffers: int) -> None:
        plan = ExecutionPlan.for_traces(self.layer.traces, batch_size)
        self.engines = tuple(LayerEngine(backend, plan) for _ in range(n_buffers))

    def stale(self, backend, n_rows: int) -> bool:
        traces = self.layer.traces
        engine = self.engines[0]
        return (
            engine.backend is not backend
            or not engine.matches(traces.n_input, tuple(traces.hidden_sizes))
            or not engine.accommodates(n_rows)
        )

    def forward(self, x: np.ndarray, ordinal: int) -> np.ndarray:
        """Hidden activations for one batch (a workspace view)."""
        engine = self.engines[ordinal % len(self.engines)]
        layer = self.layer
        # Serving honours the layer's block-sparse execution plan: a sparse
        # layer streams through the gather-GEMM kernels (packed slabs shared
        # with training), a dense layer through the masked GEMM.  The dense
        # weight buffer is passed raw (``_weights``) so a sparse dispatch
        # never forces the full-matrix materialisation.
        sparse = layer.sparse_context() if hasattr(layer, "sparse_context") else None
        return engine.forward(
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

    def workspace_nbytes(self) -> int:
        return sum(engine.workspace.nbytes() for engine in self.engines)


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
    double_buffer:
        Keep two workspaces per hidden layer and alternate between batches,
        so batch ``k``'s activations stay valid while batch ``k+1``
        computes.  Off by default: the sequential prediction loop consumes
        each batch immediately, so the second buffer would only double
        workspace memory.
    pipeline:
        Overlap the stages per batch: a background
        :class:`~repro.engine.pipeline.PipelineWorker` runs the hidden
        stages of batch ``k`` while the driver runs the *head* stage
        (decision function, softmax/argmax, scatter) of batch ``k-1``.
        Implies double buffering (batch ``k-1``'s representation must stay
        valid while batch ``k`` computes).  Bit-for-bit the same outputs as
        the sequential loop — only the schedule changes.
    comm:
        Optional :class:`repro.comm.Communicator` or transport spec string
        (``"thread:4"``, ``"process:4"``, ``"tcp://host:port?ranks=4"`` —
        see :func:`repro.comm.resolve_comm`; spec-created communicators are
        owned by the predictor and released by :meth:`close`).  With
        ``size > 1`` each
        ``predict_stream``/``predict_proba_stream`` call scatters the rows
        over the ranks (real threads or OS processes), streams every shard
        concurrently and recombines the outputs with a single allgather.
    """

    #: ``BackendExecutionMixin.is_built`` reads ``traces``; the predictor has
    #: no traces of its own (it borrows the layers'), so pin the attribute.
    traces = None

    def __init__(
        self,
        network,
        batch_size: int = 1024,
        backend=None,
        double_buffer: bool = False,
        pipeline: bool = False,
        comm: Union[Communicator, str, None] = None,
    ) -> None:
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
        self._owns_comm = False
        if isinstance(comm, str):
            # Transport spec strings ("thread:4", "process:4",
            # "tcp://host:port?ranks=4") resolve through the one shared
            # factory; the predictor owns — and must close — the result.
            from repro.comm import resolve_comm

            comm = resolve_comm(comm)
            self._owns_comm = comm is not None
        elif comm is not None and not isinstance(comm, Communicator):
            raise DataError(
                "comm must be a repro.comm.Communicator or a transport spec string"
            )
        self.network = network
        self.head = head
        self.comm = comm
        self.batch_size = check_positive_int(batch_size, "batch_size")
        self.pipeline = bool(pipeline)
        self.n_buffers = 2 if (double_buffer or self.pipeline) else 1
        self.name = f"serving:{getattr(network, 'name', 'network')}"
        self._init_execution(backend)
        self._stages: List[_LayerStage] = [
            _LayerStage(layer, self._stage_backend(layer), self.batch_size, self.n_buffers)
            for layer in network.hidden_layers
        ]

    # ----------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Release the communicator when the predictor created it from a spec."""
        if self._owns_comm and self.comm is not None:
            self.comm.close()
            self.comm = None
            self._owns_comm = False

    def __enter__(self) -> "StreamingPredictor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

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
        return sum(stage.workspace_nbytes() for stage in self._stages)

    def _ensure_capacity(self, n_rows: int) -> None:
        """Rebuild any stage whose engines no longer fit the layer/batch/backend."""
        for stage in self._stages:
            effective = self._stage_backend(stage.layer)
            if stage.stale(effective, n_rows):
                stage.rebuild(effective, max(int(n_rows), self.batch_size), self.n_buffers)

    # ------------------------------------------------------------- dispatch
    def _hidden_batch(self, x: np.ndarray, ordinal: int, n_layers=None) -> np.ndarray:
        """The hidden representation of one batch (a workspace view)."""
        representation = x
        for stage in self._stages[:n_layers]:
            representation = stage.layer.input_spec.validate_batch(representation)
            representation = stage.forward(representation, ordinal)
        return representation

    def hidden_tiles(self, source: Source, n_layers: Optional[int] = None):
        """Yield ``(batch, hidden)`` for every batch of ``source``, in order.

        The one tile loop behind every bulk forward: ``predict_stream`` and
        ``predict_proba_stream`` here, and ``Network.predict`` /
        ``predict_proba`` / ``decision_function`` / ``transform`` / the
        between-phase transform of ``Network.fit``.  ``hidden`` is the output
        of the first ``n_layers`` hidden layers (default: all of them) — a
        workspace view that the next tile overwrites, so consume or copy it
        before advancing.  Non-float64 rows are converted per tile.
        """
        for batch in self._as_stream(source):
            self._ensure_capacity(batch.size)
            yield batch, self._hidden_batch(batch.x, batch.ordinal, n_layers)

    def _scatter_batch(
        self, out: np.ndarray, batch, representation: np.ndarray, proba: bool
    ) -> None:
        """Head stage for one batch: decision + scatter into ``out``."""
        decision = self.head.decision_function(representation)
        if proba:
            out[batch.indices] = row_softmax(decision)
        else:
            out[batch.indices] = np.argmax(decision, axis=1)

    def _stream_into(self, out: np.ndarray, stream: BatchStream, proba: bool) -> np.ndarray:
        """Drive one stream, scattering per-batch results into ``out``.

        With ``pipeline=True`` the hidden stages of batch ``k`` run on a
        background worker while the driver runs the head stage of batch
        ``k-1`` — the double-buffered stage engines keep batch ``k-1``'s
        representation valid while batch ``k`` computes into the sibling
        workspaces.  The same kernels run on the same buffers either way,
        so the outputs are bit-for-bit identical to the sequential loop.
        """
        if not self.pipeline:
            for batch, hidden in self.hidden_tiles(stream):
                self._scatter_batch(out, batch, hidden, proba)
            return out
        with PipelineWorker(name=f"{self.name}-pipeline") as worker:
            pending = None
            for batch in stream:
                # Capacity is settled before submitting, and mid-stream
                # batches never grow (BatchStream yields uniform batches
                # with a possibly-smaller tail), so the worker's engines are
                # stable while its task is in flight.
                self._ensure_capacity(batch.size)
                task = worker.submit(self._hidden_batch, batch.x, batch.ordinal)
                if pending is not None:
                    previous, previous_task = pending
                    self._scatter_batch(out, previous, previous_task.result(), proba)
                pending = (batch, task)
            if pending is not None:
                previous, previous_task = pending
                self._scatter_batch(out, previous, previous_task.result(), proba)
        return out

    # ------------------------------------------------------------ front end
    def _as_stream(self, source: Source) -> BatchStream:
        if isinstance(source, BatchStream):
            if source.drop_last and source.n_samples % source.batch_size != 0:
                raise DataError(
                    "cannot stream predictions from a drop_last stream: the "
                    "tail rows would never receive a prediction"
                )
            return source
        x = np.asarray(source)
        if x.ndim != 2:
            raise DataError(f"predict_stream expects a 2-D matrix, got shape {x.shape}")
        return BatchStream(x, batch_size=self.batch_size)

    def _output(self, n_rows: int, proba: bool) -> np.ndarray:
        if proba:
            return np.empty((n_rows, self.head.n_classes), dtype=np.float64)
        return np.empty(n_rows, dtype=np.int64)

    def _stream(self, source: Source, proba: bool) -> np.ndarray:
        if self.comm is not None and self.comm.size > 1 and not isinstance(source, BatchStream):
            x = np.asarray(source)
            if x.ndim != 2:
                raise DataError(f"predict_stream expects a 2-D matrix, got shape {x.shape}")
            return self._stream_spmd(x, proba)
        return self._stream_local(source, proba)

    def _stream_local(self, source: Source, proba: bool) -> np.ndarray:
        stream = self._as_stream(source)
        n = stream.n_samples
        if n == 0:
            return self._output(0, proba)
        return self._stream_into(self._output(n, proba), stream, proba)

    def _model_token(self) -> tuple:
        """Serving refresh token: changes whenever the model's parameters do.

        Built from a per-network-instance nonce plus every layer's in-place
        refresh generation (``weights_token``), its mask generation
        (``mask_token`` — catches ``set_density``-style mask mutations that
        no weight refresh accompanies), its trace-update count and its
        structural-plasticity update count, plus the head's counters —
        any (re)training between predict calls changes at least one
        component, and the nonce keeps two *different* models (whose
        counters can coincide — e.g. any two networks freshly loaded from
        disk) from ever sharing a token.  Worker-resident replicas in
        :data:`_REPLICA_CACHE` are keyed on it.
        """
        network = self.network
        nonce = getattr(network, "_serving_model_nonce", None)
        if nonce is None:
            import uuid

            nonce = uuid.uuid4().hex
            network._serving_model_nonce = nonce
        parts: List[tuple] = [(nonce,)]
        for layer in self.network.hidden_layers:
            parts.append(
                (
                    int(getattr(layer, "weights_token", 0)),
                    int(getattr(layer, "mask_token", 0)),
                    int(getattr(layer.traces, "updates_seen", 0)),
                    int(getattr(getattr(layer, "plasticity", None), "n_updates", 0)),
                )
            )
        head = self.head
        head_traces = getattr(head, "traces", None)
        parts.append(
            (
                int(getattr(head, "weights_token", 0)),
                int(getattr(head_traces, "updates_seen", 0)) if head_traces else 0,
            )
        )
        return tuple(parts)

    def _stream_spmd(self, x: np.ndarray, proba: bool) -> np.ndarray:
        """Scatter rows over the communicator ranks; gather outputs once.

        Thread ranks read the driver's live network directly; tcp ranks
        receive it as a broadcast npz blob (a ``uint8`` array sent as raw
        frames, nothing layer-sized is pickled) — **once per model
        version**: the blob broadcast is skipped whenever the serving
        refresh token matches what this communicator's workers already hold
        (they cache the rebuilt replica), so steady-state serving moves only
        the rows and the predictions.  Each rank streams its contiguous
        shard through a local predictor, and one ragged ``allgather``
        recombines the results in rank order.
        """
        comm = self.comm
        # Transports whose worker ranks live in other processes (or on other
        # hosts) need the model shipped as a blob; thread ranks share memory.
        ship_model = comm.transport == "tcp"
        model_token = self._model_token()
        ship_blob = True
        blob = None
        if ship_model:
            # The driver tracks, per communicator, the token of the replica
            # its workers hold; a match means the broadcast can be skipped.
            # The record is only written *after* a successful program run
            # (below) — recording it up front would poison the communicator
            # if a worker failed before caching the replica.
            ship_blob = getattr(comm, "_serving_replica_token", None) != model_token
            if ship_blob:
                from repro.core.serialization import network_to_bytes

                blob = np.frombuffer(network_to_bytes(self.network), dtype=np.uint8)
        backend_spec = resolve_backend_name(self._backend_spec, self._backend)
        shared_network = None if ship_model else self.network
        x = np.ascontiguousarray(x, dtype=np.float64)
        rank_args: List[tuple] = [
            (
                self,
                None,
                x,
                blob,
                ship_model,
                self.batch_size,
                backend_spec,
                proba,
                self.pipeline,
                ship_blob,
                model_token,
            )
        ]
        rank_args += [
            (
                None,
                shared_network,
                None,
                None,
                ship_model,
                self.batch_size,
                backend_spec,
                proba,
                self.pipeline,
                ship_blob,
                model_token,
            )
            for _ in range(1, comm.size)
        ]
        try:
            results = comm.run(_predict_shard_program, rank_args)
        except BaseException:
            if ship_model:
                # Worker state is unknown after a failed program: force the
                # next call to re-broadcast the model.
                comm._serving_replica_token = None
            raise
        if ship_model:
            comm._serving_replica_token = model_token
        return results[0]

    def predict_stream(self, source: Source) -> np.ndarray:
        """Hard class predictions for a streamed source.

        Parameters
        ----------
        source:
            Either a 2-D feature matrix (streamed in ``batch_size``
            chunks; rank-sharded when a ``comm`` was given) or a prebuilt
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
            ``source`` is not 2-D.
        BackendError
            A backend worker or communicator rank failed mid-stream.
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


def predict_stream(
    network, source: Source, batch_size: int = 1024, backend=None, comm=None, pipeline=False
) -> np.ndarray:
    """One-shot helper: hard predictions for ``source`` at O(batch) memory."""
    predictor = StreamingPredictor(
        network, batch_size=batch_size, backend=backend, comm=comm, pipeline=pipeline
    )
    return predictor.predict_stream(source)


def predict_proba_stream(
    network, source: Source, batch_size: int = 1024, backend=None, comm=None, pipeline=False
) -> np.ndarray:
    """One-shot helper: class probabilities for ``source`` at O(batch) memory."""
    predictor = StreamingPredictor(
        network, batch_size=batch_size, backend=backend, comm=comm, pipeline=pipeline
    )
    return predictor.predict_proba_stream(source)
