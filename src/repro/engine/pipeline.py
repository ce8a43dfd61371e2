"""The overlap scheduler powering pipelined training.

The training hot loop has three kinds of work per batch:

1. the *gather* — fancy-indexing the shuffled batch out of the source matrix
   (overlapped by :class:`~repro.datasets.stream.BatchStream`'s prefetch
   thread; the permutation is drawn before the thread starts, so prefetching
   never changes determinism);
2. the *fused dispatch* — forward + competition + statistics + EMA trace
   update, streamed through a :class:`~repro.engine.LayerEngine` workspace
   (BLAS GEMMs release the GIL);
3. the *monitoring reduction* — the per-batch mean activation entropy the
   training history records.

:class:`PipelineWorker` is a single background thread executing submitted
closures strictly in FIFO order.  :func:`train_layer_pipelined` uses it to
run batch ``k``'s entropy reduction while batch ``k+1``'s gather and fused
dispatch execute on the driver — which requires the layer's engine to be
double-buffered (``n_buffers=2``) so batch ``k``'s activations stay valid
while batch ``k+1`` computes.  Combined with the engine's stale-weights
caching (``weight_refresh_tol``), this is the pipelined training path
benchmarked in the ``pipelined_training`` section of ``BENCH_kernels.json``.

Every quantity is computed with exactly the same floating-point operations
as the serial loop, so pipelined training with ``weight_refresh_tol=0`` is
bit-for-bit identical to serial training (test-enforced).
"""

from __future__ import annotations

import os
import queue
import threading
import time
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.exceptions import BackendError

__all__ = [
    "PipelineWorker",
    "PipelineTask",
    "helper_threads_available",
    "mean_activation_entropy",
    "resolve_comm_overlap",
    "train_layer_pipelined",
]


def resolve_comm_overlap(mode: str, weight_refresh_tol: float, size: int) -> bool:
    """Resolve ``DistributedTrainer.train_layer``'s ``comm_overlap`` to on/off.

    Communication overlap forwards batch ``k+1`` before batch ``k``'s
    reduction has been applied, i.e. it trains on one-batch-stale weights —
    which is only admissible under the stale-weights contract, so overlap
    always requires ``weight_refresh_tol > 0``.  At ``tol=0`` every mode
    degrades to the blocking schedule (bit-for-bit the historical
    behaviour).  ``"off"`` never overlaps; ``"auto"`` and ``"on"`` overlap
    whenever the tolerance permits.

    The decision deliberately does NOT depend on ``size``: the overlapped
    schedule defers *applying* each reduction by one batch, and because the
    reduced statistics of a global batch are identical for every rank
    count, keeping the schedule size-independent keeps training results
    bitwise rank-count-invariant (test-enforced across serial, thread and
    process transports).  A size-1 run has no peer skew to hide, but its
    eagerly-completing ``iallreduce`` makes the deferred apply free — the
    same floats in the same order as any multi-rank run.  ``size`` stays in
    the signature to document that invariance contract at the call sites.
    """
    if mode not in ("auto", "on", "off"):
        raise BackendError(f"comm_overlap must be 'auto', 'on' or 'off', got {mode!r}")
    del size  # deliberately unused — see docstring
    return mode != "off" and float(weight_refresh_tol) > 0.0


def helper_threads_available() -> bool:
    """Whether overlap helper threads can actually overlap on this machine.

    On a single-core machine the prefetch and pipeline-worker threads can
    only time-slice against the driver, so they add synchronisation
    overhead without overlapping any work; the pipelined entry points then
    degrade gracefully to their inline schedules.  Results are bit-for-bit
    identical either way — this predicate only picks the faster schedule.
    Override with ``REPRO_PIPELINE_THREADS=1`` (force on) or ``=0`` (force
    off) for benchmarking either schedule.
    """
    override = os.environ.get("REPRO_PIPELINE_THREADS", "").strip()
    if override in ("0", "1"):
        return override == "1"
    return (os.cpu_count() or 1) > 1


def mean_activation_entropy(activations: np.ndarray) -> float:
    """Mean per-row entropy of a batch of hidden activations.

    A cheap progress proxy for unsupervised training (lower = more
    specialised minicolumns).  This is the exact expression the serial
    training loop has always used — both paths call this helper so the
    recorded history is bit-for-bit identical with and without pipelining.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        ent = -np.sum(activations * np.log(np.clip(activations, 1e-12, 1.0)), axis=1)
    return float(np.mean(ent))


class PipelineTask:
    """Handle for one submitted closure; ``result()`` blocks until done."""

    __slots__ = ("_done", "_value", "_error")

    def __init__(self) -> None:
        self._done = threading.Event()
        self._value = None
        self._error: Optional[BaseException] = None

    def _finish(self, value, error: Optional[BaseException]) -> None:
        self._value = value
        self._error = error
        self._done.set()

    def result(self, timeout: Optional[float] = None):
        """The closure's return value (re-raises its exception)."""
        if not self._done.wait(timeout):
            raise BackendError("pipeline task did not complete in time")
        if self._error is not None:
            raise self._error
        return self._value


class PipelineWorker:
    """A single background thread running submitted closures in FIFO order.

    One worker means submitted tasks never race each other — the pipeline
    overlaps the worker's stream of tasks with the driver's, not tasks with
    tasks, which is what makes reasoning about workspace aliasing simple:
    batch ``k``'s entropy task finishes before batch ``k+1``'s starts.

    Usable as a context manager; ``close()`` drains the queue and joins the
    thread.  Submitting to a closed worker raises :class:`BackendError`.
    """

    def __init__(self, name: str = "repro-pipeline") -> None:
        self._queue: "queue.Queue" = queue.Queue()
        self._closed = False
        self._thread = threading.Thread(target=self._run, name=name, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            task, fn, args = item
            try:
                task._finish(fn(*args), None)
            except BaseException as exc:  # delivered through task.result()
                task._finish(None, exc)

    def submit(self, fn: Callable, *args) -> PipelineTask:
        """Queue ``fn(*args)`` for execution; returns its :class:`PipelineTask`."""
        if self._closed:
            raise BackendError("cannot submit to a closed PipelineWorker")
        task = PipelineTask()
        self._queue.put((task, fn, args))
        return task

    def close(self, timeout: float = 10.0) -> None:
        """Drain queued tasks and stop the thread (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._queue.put(None)
        self._thread.join(timeout)

    def __enter__(self) -> "PipelineWorker":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def train_layer_pipelined(
    layer,
    stream,
    epochs: int,
    on_epoch_end: Optional[Callable[[int, Dict[str, float]], None]] = None,
    offload: Optional[bool] = None,
    start_epoch: int = 0,
) -> List[Dict[str, float]]:
    """Run the pipelined unsupervised training loop for one hidden layer.

    Per batch the driver executes the fused dispatch (``layer.train_batch``)
    while the :class:`PipelineWorker` reduces the *previous* batch's entropy
    from its still-valid double-buffered activations, and the stream's
    prefetch thread gathers the *next* batch.  When entropy is offloaded
    the layer must be configured for double buffering
    (``layer.configure_execution(n_buffers=2)``) before calling, or the
    worker would read activations the next dispatch is overwriting.

    ``offload=None`` decides via :func:`helper_threads_available`: on a
    single-core machine the worker cannot overlap anything, so the entropy
    reduces inline (same floats, same results — only the schedule differs).

    The layer is duck-typed: ``train_batch``, ``end_epoch`` and an
    engine-backed activations view are all that is required.  Returns one
    metrics dict per epoch (``seconds``, ``mean_activation_entropy``,
    ``swaps``, ``batches``); ``on_epoch_end(epoch, metrics)`` fires on the
    driver at every epoch boundary, exactly as in the serial loop.
    """
    if epochs < 0:
        raise BackendError("epochs must be non-negative")
    if not 0 <= int(start_epoch) <= int(epochs):
        raise BackendError(f"start_epoch must be in [0, {epochs}], got {start_epoch}")
    if offload is None:
        offload = helper_threads_available()
    results: List[Dict[str, float]] = []
    worker: Optional[PipelineWorker] = None
    if offload:
        worker = PipelineWorker(name=f"repro-pipeline-{getattr(layer, 'name', 'layer')}")
    try:
        # Resumed runs re-enter at an absolute epoch index: schedules keyed
        # on the epoch number (plasticity cadence) are unaffected, and the
        # stream's RNG is expected to already sit past the completed epochs.
        for epoch in range(int(start_epoch), int(epochs)):
            start = time.perf_counter()
            entropies: List[float] = []
            pending: Optional[PipelineTask] = None
            batches = 0
            for batch in stream:
                activations = layer.train_batch(batch.x)
                if worker is not None:
                    # Collect batch k-1's entropy (it overlapped this
                    # dispatch), then hand batch k's activations to the
                    # worker so the reduction overlaps batch k+1's gather +
                    # dispatch.
                    if pending is not None:
                        entropies.append(pending.result())
                    pending = worker.submit(mean_activation_entropy, activations)
                else:
                    entropies.append(mean_activation_entropy(activations))
                batches += 1
            if pending is not None:
                entropies.append(pending.result())
            swaps = layer.end_epoch(epoch)
            metrics: Dict[str, float] = {
                "seconds": time.perf_counter() - start,
                "mean_activation_entropy": float(np.mean(entropies)) if entropies else 0.0,
                "swaps": float(swaps),
                "batches": float(batches),
            }
            results.append(metrics)
            if on_epoch_end is not None:
                on_epoch_end(epoch, dict(metrics))
    finally:
        if worker is not None:
            worker.close()
    return results
