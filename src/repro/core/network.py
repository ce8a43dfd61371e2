"""The Keras-like ``Network`` front end.

StreamBrain's interface "is heavily inspired by Keras, where the user
constructs the network layer-by-layer after finally calling the training
function" (Section III-A).  The :class:`Network` here follows the same
shape: ``add`` hidden layers and one classification head, then ``fit``.

Training proceeds exactly as the paper describes: the hidden layer(s) learn
*unsupervised* with the local BCPNN rule (including structural plasticity at
epoch boundaries), the classification head is then trained *supervised* on
the frozen hidden representation — either with the BCPNN rule or with SGD
(the hybrid configuration).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.backend.base import Backend
from repro.backend.registry import get_backend
from repro.core.heads import BCPNNClassifier, SGDClassifier
from repro.core.hyperparams import TrainingSchedule
from repro.core.layers import InputSpec, StructuralPlasticityLayer
from repro.core.training import CallbackList, EpochResult, History, TrainingCallback
from repro.datasets.stream import BatchStream
from repro.engine.pipeline import helper_threads_available, train_layer_pipelined
from repro import faults
from repro.exceptions import ConfigurationError, DataError, NotFittedError
from repro.metrics.classification import accuracy as accuracy_metric
from repro.metrics.classification import log_loss as log_loss_metric
from repro.metrics.roc import roc_auc
from repro.utils.rng import as_rng
from repro.utils.validation import check_labels, check_numeric_dtype

__all__ = ["Network"]

HeadLayer = Union[BCPNNClassifier, SGDClassifier]

#: Rows per tile of every bulk forward (``predict*``, ``transform``,
#: ``evaluate`` and the between-phase transforms of ``fit``): the working set
#: of a forward is ``TILE_ROWS x H`` whatever the input length.
TILE_ROWS = 512


class Network:
    """A feed-forward stack of BCPNN layers with a classification head.

    Parameters
    ----------
    seed:
        Seed for batch shuffling (layer seeds are set on the layers).
    name:
        Identifier used in logs and serialised files.
    backend:
        Optional backend name or instance threaded through every BCPNN layer
        that did not choose one explicitly — the single backend-resolution
        point for a whole network (layers share the instance, so e.g. one
        thread pool serves the full stack).
    """

    def __init__(self, seed=None, name: str = "bcpnn-network", backend=None) -> None:
        self._rng = as_rng(seed)
        self.name = name
        self._backend: Optional[Backend] = get_backend(backend) if backend is not None else None
        self.hidden_layers: List[StructuralPlasticityLayer] = []
        self.head: Optional[HeadLayer] = None
        self.input_spec: Optional[InputSpec] = None
        self.history = History()
        self._fitted = False
        self._serving_predictor = None
        self._serving_key = None

    # ------------------------------------------------------------ assembly
    def add(self, layer) -> "Network":
        """Append a hidden layer or set the classification head."""
        if isinstance(layer, StructuralPlasticityLayer):
            if self.head is not None:
                raise ConfigurationError("cannot add hidden layers after the classification head")
            self.hidden_layers.append(layer)
        elif isinstance(layer, (BCPNNClassifier, SGDClassifier)):
            if self.head is not None:
                raise ConfigurationError("the network already has a classification head")
            self.head = layer
        else:
            raise ConfigurationError(
                f"unsupported layer type {type(layer).__name__}; expected "
                "StructuralPlasticityLayer, BCPNNClassifier or SGDClassifier"
            )
        if self._backend is not None and hasattr(layer, "bind_backend"):
            layer.bind_backend(self._backend)
        return self

    @property
    def layers(self) -> List[object]:
        stack: List[object] = list(self.hidden_layers)
        if self.head is not None:
            stack.append(self.head)
        return stack

    @property
    def is_fitted(self) -> bool:
        return self._fitted

    # ------------------------------------------------------------ building
    def build(self, input_spec: InputSpec) -> "Network":
        """Build every layer for the given input layout."""
        if self.head is None:
            raise ConfigurationError("the network needs a classification head before building")
        self.input_spec = input_spec
        spec = input_spec
        for layer in self.hidden_layers:
            layer.build(spec)
            spec = layer.output_spec
        self.head.build(spec)
        return self

    def _resolve_input_spec(self, x: np.ndarray, input_spec) -> InputSpec:
        if input_spec is not None:
            if isinstance(input_spec, InputSpec):
                return input_spec
            return InputSpec(list(input_spec))
        if self.input_spec is not None:
            return self.input_spec
        raise ConfigurationError(
            "an InputSpec (hypercolumn layout of the input) is required; pass "
            "input_spec=InputSpec.from_encoder(encoder) or a list of block sizes"
        )

    # ------------------------------------------------------------- training
    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        input_spec: Union[InputSpec, Sequence[int], None] = None,
        schedule: Optional[TrainingSchedule] = None,
        callbacks: Optional[List[TrainingCallback]] = None,
        verbose: bool = False,
        comm=None,
        checkpoint_dir=None,
        checkpoint_every: int = 1,
        checkpoint_keep: int = 3,
        resume: bool = False,
    ) -> History:
        """Train the network; returns the training :class:`History`.

        ``comm`` (a :class:`repro.comm.Communicator` or a transport spec
        string — ``"thread:4"``, ``"process:4"``,
        ``"tcp://host:port?ranks=8"``; see
        :func:`repro.comm.resolve_comm`; spec-created communicators are
        closed when ``fit`` returns) switches the hidden
        layers to data-parallel training: every rank holds an identical
        layer replica, each global batch is sharded over the ranks, and the
        sufficient statistics are combined with one allreduce per batch (see
        :class:`repro.backend.distributed.DistributedTrainer`).  Training is
        rank-invariant across the serial/thread/tcp transports (bit for
        bit up to floating-point summation order) for deterministic
        competition modes.  The classification head is small and trains in
        this process as usual.  On a transport that can recover a rank
        (``comm.fault_tolerant``: tcp, ``process:N`` included) a crashed
        rank is respawned or re-admitted and the layer resumes from its
        last epoch boundary — bitwise-exact at ``weight_refresh_tol=0``.

        Every training knob comes from ``schedule``: ``pipeline=True``
        runs the serial hidden phase through the overlapped double-buffered
        loop (:mod:`repro.engine.pipeline`; identical results, different
        work schedule), and ``weight_refresh_tol > 0`` enables stale-weights
        caching (skip the per-batch ``traces_to_weights`` refresh while the
        accumulated ``taupdt``-scaled trace drift stays under the tolerance;
        ``0`` is bit-for-bit exact).  Hidden layers whose mask density is at
        or below :data:`repro.kernels.SPARSE_DENSITY_THRESHOLD` run the
        block-sparse kernels (an execution choice — results unchanged).

        Parameters
        ----------
        x:
            ``(n_samples, n_features)`` encoded (one-hot per hypercolumn)
            training matrix of any real dtype; kept as stored (``uint8``
            from the encoder) and widened to float64 one batch at a time.
        y:
            ``(n_samples,)`` integer class labels.
        input_spec:
            Hypercolumn layout of ``x`` — an :class:`InputSpec` or a list
            of block sizes.  Required on the first fit; a refit may omit
            it to reuse the built spec.
        schedule:
            Epoch/batch/knob schedule (default :class:`TrainingSchedule`).
        callbacks:
            Optional :class:`TrainingCallback` list (epoch/batch hooks).
        verbose:
            Log per-epoch progress.
        comm:
            Optional :class:`repro.comm.Communicator` or transport spec
            string for data-parallel hidden-layer training (see above).
        checkpoint_dir / checkpoint_every / checkpoint_keep / resume:
            Durable driver-side crash recovery (:mod:`repro.checkpoint`):
            with ``checkpoint_dir`` set, the full training state — every
            layer's traces/mask/weights, all RNG streams, the history and a
            phase cursor — is persisted atomically every
            ``checkpoint_every`` epoch boundaries (rotating all but the
            last ``checkpoint_keep``).  ``resume=True`` restores the newest
            checkpoint (validated against a schedule fingerprint — resuming
            under changed hyperparameters raises a pathed
            :class:`~repro.exceptions.CheckpointError`) and fast-forwards:
            the finished portion is skipped, and at
            ``weight_refresh_tol=0`` the resumed run's final weights,
            predictions and metrics are bitwise-identical to an
            uninterrupted run.  An empty checkpoint directory with
            ``resume=True`` simply starts fresh, so restart loops are
            idempotent.  Mid-layer resumes must use the same execution mode
            (serial vs ``comm``) the checkpoint was written under; a comm
            resume re-enters the layer through the same restart path as a
            recovered rank crash.

        Returns
        -------
        History
            Per-phase loss/entropy curves and wall-clock timings; also
            stored on ``self.history``.

        Raises
        ------
        DataError
            ``x`` is not a 2-D real-valued matrix, or misaligned with ``y``.
        ConfigurationError
            No classification head was added, or no input spec is
            available, or an override value is invalid.
        BackendError
            A communicator rank or backend worker failed mid-training.
        """
        schedule = schedule or TrainingSchedule()
        x = check_numeric_dtype(x)
        if x.ndim != 2:
            raise DataError("x must be a 2-D matrix")
        y = check_labels(y, name="y")
        if y.shape[0] != x.shape[0]:
            raise DataError("x and y are misaligned")
        if self.head is None:
            raise ConfigurationError("add a classification head before calling fit()")
        spec = self._resolve_input_spec(x, input_spec)
        self.build(spec)

        callback_list = CallbackList(callbacks)
        self.history = History()

        # --------------------------------------- durable checkpoint/resume
        checkpointer = None
        resume_state = None
        if checkpoint_dir is not None:
            from repro.checkpoint import TrainingCheckpointer

            checkpointer = TrainingCheckpointer(
                self,
                schedule,
                checkpoint_dir,
                x_shape=x.shape,
                every=int(checkpoint_every),
                keep_last=int(checkpoint_keep),
            )
            if resume:
                resume_state = checkpointer.load_for_resume()
        elif resume:
            raise ConfigurationError("resume=True requires checkpoint_dir")
        start_layer = 0
        hidden_start_epoch = 0
        head_start_epoch = 0
        unit_extras = None
        resume_done = False
        if resume_state is not None:
            cursor = resume_state.cursor
            if cursor["phase"] == "hidden":
                start_layer = int(cursor["layer_index"])
                hidden_start_epoch = int(cursor["epochs_done"])
                unit_extras = resume_state.unit
            elif cursor["phase"] == "head":
                start_layer = len(self.hidden_layers)
                head_start_epoch = int(cursor["epochs_done"])
            else:  # "done" — nothing left to train, history already restored
                start_layer = len(self.hidden_layers)
                resume_done = True

        boundary_step = {"count": 0}

        def boundary(cursor: Dict[str, object], unit=None) -> None:
            """One completed epoch boundary: checkpoint, then fault hooks."""
            step = boundary_step["count"]
            boundary_step["count"] = step + 1
            if checkpointer is not None:
                checkpointer.maybe_save(cursor, unit)
            rule = faults.fault_point(
                "driver.kill", epoch=step, phase=str(cursor.get("phase"))
            )
            if rule is not None:
                faults.kill_driver(rule, cursor=dict(cursor))

        def advance(cursor: Dict[str, object]) -> None:
            """A unit finished: persist the cursor pointing at the next one."""
            if checkpointer is not None:
                checkpointer.save(cursor)

        callback_list.on_train_begin(self)

        # ------------------------------------------- phase 1: hidden layers
        # Spec strings resolve through the one shared factory; a communicator
        # fit creates it also owns (and closes before returning).
        owns_comm = False
        if isinstance(comm, str):
            from repro.comm import resolve_comm

            comm = resolve_comm(comm)
            owns_comm = comm is not None
        try:
            self._fit_phases(
                x,
                y,
                schedule,
                comm,
                owns_comm,
                callback_list,
                verbose,
                start_layer,
                hidden_start_epoch,
                head_start_epoch,
                unit_extras,
                resume_done,
                boundary,
                advance,
            )
        except BaseException:
            # Join the in-flight checkpoint commit without letting its own
            # failure mask the exception already on its way out.
            if checkpointer is not None:
                checkpointer.flush(suppress=True)
            raise
        if checkpointer is not None:
            checkpointer.flush()

        callback_list.on_train_end(self)
        self._fitted = True
        return self.history

    def _fit_phases(
        self,
        x,
        y,
        schedule,
        comm,
        owns_comm,
        callback_list,
        verbose,
        start_layer,
        hidden_start_epoch,
        head_start_epoch,
        unit_extras,
        resume_done,
        boundary,
        advance,
    ):
        """Run the hidden-layer and head training phases for ``fit``.

        Each unit trains on the tiled forward of ``x`` through the layers
        before it (:meth:`_tiled`) — one ``(N, H)`` matrix, released before
        the next unit's is built, and the only thing ``fit`` holds at the
        size of the training set.
        """
        n_hidden = len(self.hidden_layers)
        try:
            for index in range(start_layer, n_hidden):
                layer = self.hidden_layers[index]
                representation = self._tiled(x, n_layers=index)
                layer_start = hidden_start_epoch if index == start_layer else 0
                layer_unit = unit_extras if index == start_layer else None
                # Only a data-parallel layer checkpoints a unit (its restart
                # record), so a mid-layer resume must keep the execution mode.
                if layer_start > 0 and (layer_unit is not None) != (comm is not None):
                    written = "data-parallel (comm)" if layer_unit is not None else "serial"
                    raise ConfigurationError(
                        f"the checkpoint was written mid-layer under {written} "
                        "training; resume with the same execution mode"
                    )
                if comm is not None:
                    self._train_hidden_layer_comm(
                        layer,
                        representation,
                        schedule,
                        comm,
                        callback_list,
                        verbose,
                        layer_index=index,
                        resume_unit=layer_unit,
                        boundary=boundary,
                    )
                else:
                    self._train_hidden_layer(
                        layer,
                        representation,
                        schedule,
                        callback_list,
                        verbose,
                        layer_index=index,
                        start_epoch=layer_start,
                        boundary=boundary,
                    )
                del representation
                if index + 1 < n_hidden:
                    advance({"phase": "hidden", "layer_index": index + 1, "epochs_done": 0})
                else:
                    advance({"phase": "head", "epochs_done": 0})
        finally:
            if owns_comm:
                comm.close()

        # -------------------------------------------- phase 2: classification
        if not resume_done:
            self._train_head(
                self._tiled(x),
                y,
                schedule,
                callback_list,
                verbose,
                start_epoch=head_start_epoch,
                boundary=boundary,
            )
            advance({"phase": "done", "epochs_done": 0})

    def _batch_stream(
        self, x: np.ndarray, y: Optional[np.ndarray], schedule: TrainingSchedule
    ) -> BatchStream:
        """The minibatch stream for one training phase.

        Shares the network RNG with the stream so the per-epoch shuffle draws
        reproduce the legacy ``fit`` batch order exactly.  Pipelined
        training wants the gather thread, so ``pipeline=True`` prefetches two
        batches ahead — on machines where a helper thread can actually
        overlap (prefetching never changes the batch order: the permutation
        is drawn before the thread starts).
        """
        prefetch = 2 if schedule.pipeline and helper_threads_available() else 0
        return BatchStream(
            x,
            y=y,
            batch_size=schedule.batch_size,
            shuffle=True,
            rng=self._rng,
            prefetch=prefetch,
        )

    def _train_hidden_layer(
        self,
        layer: StructuralPlasticityLayer,
        x: np.ndarray,
        schedule: TrainingSchedule,
        callbacks: CallbackList,
        verbose: bool,
        layer_index: int = 0,
        start_epoch: int = 0,
        boundary=None,
    ) -> None:
        # Double buffering is only needed when the entropy reduction runs on
        # the worker thread (batch k's activations must survive batch k+1's
        # dispatch); the single-core degenerate schedule keeps one buffer.
        overlap = schedule.pipeline and helper_threads_available()
        layer.configure_execution(
            n_buffers=2 if overlap else 1,
            weight_refresh_tol=schedule.weight_refresh_tol,
        )
        stream = self._batch_stream(x, None, schedule)
        emit = self._hidden_epoch_end(layer, layer_index, schedule, callbacks, verbose, boundary)

        try:
            # One loop for both schedules: when overlapping, the entropy of
            # batch k reduces on a worker thread while batch k+1 gathers
            # (prefetch thread) and its fused dispatch runs — double-buffered
            # workspaces keep batch k's activations valid throughout.
            train_layer_pipelined(
                layer,
                stream,
                schedule.hidden_epochs,
                on_epoch_end=emit,
                offload=overlap,
                start_epoch=start_epoch,
            )
        finally:
            # Phase boundary: publish weights matching the final traces (a
            # no-op unless stale-weights caching deferred a refresh), then
            # restore the default execution contract — single-buffer engines
            # and exact per-batch refreshes, so later direct ``train_batch``
            # callers get the historical refresh-every-batch semantics — and
            # release the training engine: a fitted network keeps parameters,
            # not scratch (``engine_for`` rebuilds it on the next dispatch).
            layer.flush_weights()
            layer.configure_execution(n_buffers=1, weight_refresh_tol=0.0)
            layer._reset_engine()

    def _train_hidden_layer_comm(
        self,
        layer: StructuralPlasticityLayer,
        x: np.ndarray,
        schedule: TrainingSchedule,
        comm,
        callbacks: CallbackList,
        verbose: bool,
        layer_index: int = 0,
        resume_unit=None,
        boundary=None,
    ) -> None:
        """Data-parallel hidden-layer phase over a :mod:`repro.comm` transport.

        Delegates to :class:`~repro.backend.distributed.DistributedTrainer`
        in ``"competitive"`` mode (first-batch calibration + the configured
        competition rule — the same semantics as the serial
        ``train_batch`` path).  Each epoch boundary record the trainer
        emits is recorded like a serial epoch, and checkpointed without its
        snapshot as the unit a resume re-enters (``resume_unit``).
        """
        from repro.backend.distributed import DistributedTrainer

        emit = self._hidden_epoch_end(layer, layer_index, schedule, callbacks, verbose, boundary)

        def on_epoch_end(record: Dict[str, object]) -> None:
            emit(
                int(record["epoch"]) - 1,
                record["epoch_logs"][-1],
                ranks=comm.size,
                unit={k: v for k, v in record.items() if k != "snapshot"},
            )

        # Derive a per-phase shuffle stream from the network RNG (advancing
        # it, so stacked layers do not reuse one permutation sequence).  A
        # checkpoint resume into this layer reuses the unit's seed instead:
        # the restored network RNG state was captured after the draw, so
        # drawing again would desynchronise every later layer's stream.
        shuffle_rng = None if resume_unit is not None else as_rng(int(self._rng.integers(2**63)))
        try:
            DistributedTrainer(comm).train_layer(
                layer,
                x,
                epochs=schedule.hidden_epochs,
                batch_size=schedule.batch_size,
                rng=shuffle_rng,
                on_epoch_end=on_epoch_end,
                weight_refresh_tol=schedule.weight_refresh_tol,
                resume=resume_unit,
            )
        finally:
            # Phase boundary: settle the dense weight matrix the sparse
            # plan's packed refreshes may have deferred (a no-op otherwise),
            # and drop any engine an earlier serial fit left on the layer.
            layer.flush_weights()
            layer._reset_engine()

    def _hidden_epoch_end(self, layer, layer_index, schedule, callbacks, verbose, boundary):
        """The one per-epoch record of hidden-layer training, serial or comm.

        Returns ``emit(epoch, logs, ranks=None, unit=None)``: appends the
        :class:`EpochResult`, fires the callbacks, prints the verbose line
        and passes the boundary to the checkpointer.  The comm route adds
        the rank count and its checkpoint unit.
        """

        def emit(epoch: int, logs: Dict[str, float], ranks=None, unit=None) -> None:
            metrics = {
                "mean_activation_entropy": float(logs.get("mean_activation_entropy", 0.0)),
                "mask_swaps": float(logs["swaps"]),
                "density": float(layer.hyperparams.density),
            }
            if ranks is not None:
                metrics["ranks"] = float(ranks)
            duration = float(logs["seconds"])
            self.history.append(EpochResult("hidden", layer.name, epoch, duration, metrics))
            callbacks.on_epoch_end(
                {
                    "phase": "hidden",
                    "layer": layer,
                    "layer_name": layer.name,
                    "epoch": epoch,
                    "network": self,
                    "metrics": metrics,
                }
            )
            if verbose:  # pragma: no cover - console convenience
                print(
                    f"[hidden:{layer.name}] epoch {epoch + 1}/{schedule.hidden_epochs} "
                    f"entropy={metrics['mean_activation_entropy']:.3f} "
                    f"swaps={int(metrics['mask_swaps'])}"
                    + (f" ranks={ranks}" if ranks is not None else "")
                    + f" ({duration:.2f}s)"
                )
            if boundary is not None:
                # The network RNG has drawn this epoch's permutation and the
                # record is appended, so a checkpoint here resumes exactly at
                # the next epoch.
                boundary(
                    {"phase": "hidden", "layer_index": layer_index, "epochs_done": epoch + 1},
                    unit=unit,
                )

        return emit

    def _train_head(
        self,
        representation: np.ndarray,
        y: np.ndarray,
        schedule: TrainingSchedule,
        callbacks: CallbackList,
        verbose: bool,
        start_epoch: int = 0,
        boundary=None,
    ) -> None:
        head = self.head
        epochs = schedule.classifier_epochs
        extra_sgd = schedule.sgd_epochs if isinstance(head, SGDClassifier) else 0
        total_epochs = epochs + extra_sgd
        if isinstance(head, BCPNNClassifier):
            head.configure_execution(weight_refresh_tol=schedule.weight_refresh_tol)
        stream = self._batch_stream(representation, y, schedule)
        try:
            self._run_head_epochs(
                head, representation, y, stream, schedule, total_epochs, epochs,
                callbacks, verbose, start_epoch=start_epoch, boundary=boundary,
            )
        finally:
            if isinstance(head, BCPNNClassifier):
                # Phase boundary: restore the exact refresh-every-batch
                # contract for any later direct train_batch callers.
                head.flush_weights()
                head.configure_execution(weight_refresh_tol=0.0)

    def _run_head_epochs(
        self,
        head: HeadLayer,
        representation: np.ndarray,
        y: np.ndarray,
        stream: BatchStream,
        schedule: TrainingSchedule,
        total_epochs: int,
        epochs: int,
        callbacks: CallbackList,
        verbose: bool,
        start_epoch: int = 0,
        boundary=None,
    ) -> None:
        for epoch in range(start_epoch, total_epochs):
            start = time.perf_counter()
            losses = []
            fine_tuning = epoch >= epochs
            for batch in stream:
                if isinstance(head, SGDClassifier):
                    lr = head.learning_rate * (0.1 if fine_tuning else 1.0)
                    losses.append(head.train_batch(batch.x, batch.y, learning_rate=lr))
                else:
                    head.train_batch(batch.x, batch.y)
            if isinstance(head, BCPNNClassifier):
                # Publish weights before the epoch metric pass (a no-op
                # unless stale-weights caching deferred a refresh).
                head.flush_weights()
            duration = time.perf_counter() - start
            train_pred = head.predict(representation)
            metrics: Dict[str, float] = {
                "train_accuracy": accuracy_metric(y, train_pred),
            }
            if losses:
                metrics["train_loss"] = float(np.mean(losses))
            record = EpochResult("classifier", head.name, epoch, duration, metrics)
            self.history.append(record)
            callbacks.on_epoch_end(
                {
                    "phase": "classifier",
                    "layer": head,
                    "layer_name": head.name,
                    "epoch": epoch,
                    "network": self,
                    "metrics": metrics,
                }
            )
            if verbose:  # pragma: no cover
                print(
                    f"[head:{head.name}] epoch {epoch + 1}/{total_epochs} "
                    f"train_acc={metrics['train_accuracy']:.4f} ({duration:.2f}s)"
                )
            if boundary is not None:
                boundary({"phase": "head", "epochs_done": epoch + 1})

    # ------------------------------------------------------------ inference
    def _require_fitted(self) -> None:
        if self.head is None or not self.head.is_built:
            raise NotFittedError("the network has not been trained; call fit() first")

    def _tiled(
        self, x, head_stage=None, tail=(), dtype=np.float64, n_layers: Optional[int] = None
    ) -> np.ndarray:
        """``x`` through the first ``n_layers`` hidden layers (default all), tile by tile.

        Every bulk forward is this loop: at most ``TILE_ROWS`` rows at a time
        go through :meth:`~repro.serving.StreamingPredictor.hidden_tiles`
        (lane 0 of ``predict_stream``) and then through ``head_stage`` (a
        head method returning ``(rows, *tail)`` of ``dtype``) when one is
        given.  The returned ``(n_samples, ...)`` array is the only
        allocation that grows with the input (none for zero layers).  The
        predictor is never cached: its tile workspaces die with the call, so
        bulk calls leave nothing on the network (a retained workspace makes
        the *next* fit's ``(N, H)`` matrix grow the heap — docs/training.md,
        "Memory model of ``fit``").
        """
        from repro.serving import StreamingPredictor

        x = check_numeric_dtype(x)
        if x.ndim != 2:
            raise DataError(f"input batch must be 2-D, got shape {x.shape}")
        layers = self.hidden_layers[:n_layers]
        if head_stage is None:
            if not layers:
                return x  # stored dtype: the unit trained on it widens per batch
            tail = (layers[-1].n_hidden_units,)
        out = np.empty((x.shape[0], *tail), dtype=dtype)
        predictor = StreamingPredictor(self, batch_size=max(1, min(x.shape[0], TILE_ROWS)))
        for batch, hidden in predictor.hidden_tiles(x, len(layers)):
            out[batch.indices] = hidden if head_stage is None else head_stage(hidden)
        return out

    def transform(self, x: np.ndarray) -> np.ndarray:
        """Hidden representation of ``x`` (output of the last hidden layer)."""
        self._require_fitted()
        return self._tiled(x)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Class-probability matrix for encoded inputs.

        Parameters
        ----------
        x:
            ``(n_samples, n_features)`` encoded matrix matching the built
            input spec.

        Returns
        -------
        numpy.ndarray
            ``(n_samples, n_classes)`` row-stochastic probabilities.

        Raises
        ------
        NotFittedError
            The network has not been fitted.
        DataError
            ``x`` does not match the built input spec.
        """
        self._require_fitted()
        return self._tiled(x, self.head.predict_proba, (self.head.n_classes,))

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Hard class predictions for encoded inputs.

        Parameters
        ----------
        x:
            ``(n_samples, n_features)`` encoded matrix matching the built
            input spec.

        Returns
        -------
        numpy.ndarray
            ``(n_samples,)`` integer class labels
            (``argmax`` of :meth:`predict_proba` rows).

        Raises
        ------
        NotFittedError
            The network has not been fitted.
        DataError
            ``x`` does not match the built input spec.
        """
        self._require_fitted()
        return self._tiled(x, self.head.predict, (), np.int64)

    # ----------------------------------------------------- streaming serving
    def _streaming_predictor(self, batch_size: int, backend):
        """The cached :class:`~repro.serving.StreamingPredictor` for a config.

        Imported lazily: ``repro.serving`` depends on ``repro.core`` (the
        execution mixin), so a module-level import here would be circular.
        The predictor itself revalidates layer shapes and backend identity on
        every call, so caching it is safe across refits that keep the
        architecture — only a config change rebuilds it.
        """
        from repro.serving import StreamingPredictor

        key = (
            backend if isinstance(backend, str) else id(backend) if backend is not None else None,
            int(batch_size),
            id(self.head),
            len(self.hidden_layers),
        )
        if self._serving_predictor is None or self._serving_key != key:
            self._serving_predictor = StreamingPredictor(
                self, batch_size=batch_size, backend=backend
            )
            self._serving_key = key
        return self._serving_predictor

    def predict_stream(self, x, batch_size: int = 1024, backend=None) -> np.ndarray:
        """Hard class predictions, streamed at O(batch) memory.

        The tile loop of :meth:`predict` with the knobs exposed: the caller
        picks the tile size and may force a backend, the predictor (and its
        workspaces) is cached on the network for repeated calls.  ``x`` may
        also be a prebuilt :class:`~repro.datasets.stream.BatchStream`.

        Parameters
        ----------
        x:
            ``(n_samples, n_features)`` encoded matrix of any length, or a
            prebuilt :class:`~repro.datasets.stream.BatchStream`.
        batch_size:
            Rows per engine dispatch (sizes the workspaces once).
        backend:
            Optional backend name/instance forcing one backend for the
            whole stack; default: each layer's own resolved backend.

        Returns
        -------
        numpy.ndarray
            ``(n_samples,)`` integer class labels.

        Raises
        ------
        NotFittedError
            The network has not been fitted.
        DataError
            Rows do not match the built input spec.
        """
        self._require_fitted()
        return self._streaming_predictor(batch_size, backend).predict_stream(x)

    def evaluate(self, x: np.ndarray, y: np.ndarray) -> Dict[str, float]:
        """Accuracy / AUC (binary) / log-loss on a labelled set."""
        self._require_fitted()
        y = check_labels(y, name="y")
        proba = self.predict_proba(x)
        predictions = np.argmax(proba, axis=1)
        results = {
            "accuracy": accuracy_metric(y, predictions),
            "log_loss": log_loss_metric(y, proba),
            "n_samples": float(y.shape[0]),
        }
        if proba.shape[1] == 2 and len(np.unique(y)) == 2:
            results["auc"] = roc_auc(y, proba[:, 1])
        return results

    # ----------------------------------------------------------------- misc
    def receptive_field_masks(self) -> List[np.ndarray]:
        """Mask matrices of every hidden layer (for visualisation)."""
        return [layer.receptive_field_masks() for layer in self.hidden_layers if layer.is_built]

    def summary(self) -> str:
        """A human-readable architecture summary (Keras-style)."""
        lines = [f"Network '{self.name}'", "=" * 60]
        for layer in self.hidden_layers:
            built = "built" if layer.is_built else "unbuilt"
            lines.append(
                f"  {layer.name}: {layer.n_hypercolumns} HCUs x {layer.n_minicolumns} MCUs, "
                f"density={layer.hyperparams.density:.0%} [{built}]"
            )
        if self.head is not None:
            lines.append(
                f"  {self.head.name}: {type(self.head).__name__} "
                f"({self.head.n_classes} classes)"
            )
        else:
            lines.append("  <no classification head>")
        lines.append("=" * 60)
        return "\n".join(lines)
