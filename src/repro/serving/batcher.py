"""Async request coalescing: many small requests, one engine dispatch.

The request-facing serving path receives many small concurrent JSON
requests (often a single row each), while the execution engine is fastest
when it dispatches *micro-batches* through one preallocated
:class:`~repro.engine.LayerWorkspace` — the same fused/sparse kernels the
bulk :class:`~repro.serving.StreamingPredictor` path uses.
:class:`MicroBatcher` bridges the two: concurrent ``submit`` calls park on
an :mod:`asyncio` queue, a single flush task coalesces them into one
feature matrix, and the batch is dispatched once.

The flush policy is **arrival-driven**: a batch leaves whenever the
dispatch worker is free and the queue is non-empty — at once when
``batch_size`` rows are queued, otherwise as soon as every request that has
*already arrived* has reached the queue (:meth:`MicroBatcher._settle`).  It
never sleeps on a timer for requests that have not arrived: a wait can save
at most one dispatch's fixed cost, and coalescing is free while a dispatch
is in flight — whatever arrives during batch ``k`` forms batch ``k+1``.
``deadline`` only caps how long the oldest queued request may be held back
while arrivals keep coming.

Admission control and backpressure are explicit:

* a bounded queue (``max_queue_rows``): a ``submit`` that would overflow it
  raises :class:`QueueFullError` immediately (the HTTP front end maps this
  to ``503`` + ``Retry-After``) instead of letting latency grow without
  bound;
* a per-request deadline (``request_timeout``): a request that has not
  been answered in time raises :class:`DeadlineExceededError` (mapped to
  ``504``) and its slot is discarded — the dispatch result of an abandoned
  request is simply dropped;
* graceful drain (:meth:`MicroBatcher.drain`): no new admissions, every
  queued request is flushed and answered, then the dispatch executor shuts
  down.

Dispatches run on a dedicated single worker thread, so two batches never
dispatch concurrently into the same predictor workspaces.
"""

from __future__ import annotations

import asyncio
import math
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Callable, Deque, Dict, List, Optional

import numpy as np

from repro.exceptions import ConfigurationError, ReproError
from repro.utils.validation import check_positive_int

__all__ = [
    "BatchResult",
    "DeadlineExceededError",
    "DispatchError",
    "MicroBatcher",
    "QueueFullError",
    "RequestSlice",
    "ServingClosedError",
]


class QueueFullError(ReproError, RuntimeError):
    """Raised when admitting a request would overflow the bounded queue.

    ``retry_after`` is the suggested client back-off in whole seconds
    (at least 1): the queued backlog in batches times the measured mean
    dispatch time — the HTTP front end forwards it as a ``Retry-After``
    header on the ``503`` response.
    """

    def __init__(self, message: str, retry_after: int = 1) -> None:
        super().__init__(message)
        self.retry_after = max(1, int(retry_after))


class DeadlineExceededError(ReproError, RuntimeError):
    """Raised when a request's per-request deadline expires before dispatch."""


class DispatchError(ReproError, RuntimeError):
    """Raised to every waiter of a micro-batch whose dispatch failed."""


class ServingClosedError(ReproError, RuntimeError):
    """Raised when submitting to a draining or closed batcher."""


@dataclass(frozen=True)
class BatchResult:
    """One micro-batch dispatch outcome, produced by the dispatch callable.

    Attributes
    ----------
    predictions:
        ``(n_rows,)`` hard class predictions for the whole micro-batch.
    probabilities:
        ``(n_rows, n_classes)`` class probabilities, row-aligned with
        ``predictions``.
    model_version:
        The serving model version the batch was computed with — captured
        atomically per batch, so a hot-swap never splits one micro-batch
        across two models.
    """

    predictions: np.ndarray
    probabilities: np.ndarray
    model_version: int


@dataclass(frozen=True)
class RequestSlice:
    """One request's share of a dispatched micro-batch.

    Attributes
    ----------
    predictions / probabilities:
        This request's row slice of the batch outputs.
    model_version:
        Version of the model that served the batch.
    batch_rows:
        Total rows in the micro-batch this request was coalesced into
        (``>= len(predictions)``) — observability for the batching gain.
    """

    predictions: np.ndarray
    probabilities: np.ndarray
    model_version: int
    batch_rows: int


@dataclass
class _Pending:
    rows: np.ndarray
    future: "asyncio.Future[RequestSlice]"
    enqueued_at: float


@dataclass
class BatcherStats:
    """Thread-compatible counters the flush loop maintains (loop-owned)."""

    requests: int = 0
    rows: int = 0
    batches: int = 0
    batch_rows: int = 0
    dispatch_seconds: float = 0.0  # wall time of the successful dispatches
    flush_full: int = 0
    flush_idle: int = 0
    flush_deadline: int = 0
    flush_drain: int = 0
    rejected: int = 0
    timeouts: int = 0
    dispatch_errors: int = 0

    def as_dict(self) -> Dict[str, float]:
        """Every counter, plus the per-batch means derived from them."""
        batches = max(self.batches, 1)
        return {
            **asdict(self),
            "mean_batch_rows": self.batch_rows / batches,
            "mean_dispatch_ms": self.dispatch_seconds / batches * 1e3,
        }


class MicroBatcher:
    """Coalesce concurrent row requests into micro-batched engine dispatches.

    Parameters
    ----------
    dispatch:
        ``dispatch(matrix) -> BatchResult`` — called on the dispatch worker
        thread with the coalesced ``(n_rows, n_features)`` matrix.  Must be
        self-consistent under concurrent model swaps (the server's
        :class:`~repro.serving.server.ModelRunner` snapshots predictor and
        version under one lock).
    batch_size:
        Flush at once when at least this many rows are queued; a batch
        carries at most this many rows unless one request is larger.
    deadline:
        The longest, in seconds, the *oldest* queued request may be held
        back for coalescing while new requests keep arriving — a cap, not a
        timer: with nothing arriving the batch leaves immediately.
    max_queue_rows:
        Bound on queued (not yet dispatched) rows; admission beyond it
        raises :class:`QueueFullError`.
    request_timeout:
        Optional per-request deadline in seconds measured from ``submit``;
        expiry raises :class:`DeadlineExceededError` to that caller only.

    Notes
    -----
    All public coroutine methods must be called from one event loop; the
    dispatch callable is the only code that runs off-loop.
    """

    def __init__(
        self,
        dispatch: Callable[[np.ndarray], BatchResult],
        batch_size: int = 64,
        deadline: float = 0.005,
        max_queue_rows: int = 4096,
        request_timeout: Optional[float] = None,
    ) -> None:
        self._dispatch = dispatch
        self.batch_size = check_positive_int(batch_size, "batch_size")
        if deadline <= 0:
            raise ConfigurationError(f"deadline must be positive (seconds), got {deadline}")
        self.deadline = float(deadline)
        self.max_queue_rows = check_positive_int(max_queue_rows, "max_queue_rows")
        if request_timeout is not None and request_timeout <= 0:
            raise ConfigurationError(
                f"request_timeout must be positive (seconds), got {request_timeout}"
            )
        self.request_timeout = request_timeout
        self.stats = BatcherStats()
        self._pending: Deque[_Pending] = deque()
        self._pending_rows = 0
        self._wakeup: Optional[asyncio.Event] = None
        self._closed = False
        self._flush_task: Optional[asyncio.Task] = None
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-dispatch"
        )

    # ------------------------------------------------------------ lifecycle
    async def start(self) -> None:
        """Start the flush loop on the current event loop (idempotent)."""
        if self._flush_task is None:
            self._wakeup = asyncio.Event()
            self._flush_task = asyncio.create_task(self._flush_loop(), name="repro-serve-flush")

    async def drain(self) -> None:
        """Stop admissions, flush and answer everything queued, shut down."""
        self._closed = True
        if self._flush_task is not None:
            self._wakeup.set()
            await self._flush_task
            self._flush_task = None
        self._executor.shutdown(wait=True)

    @property
    def queued_rows(self) -> int:
        """Rows currently admitted but not yet dispatched (a gauge)."""
        return self._pending_rows

    # ------------------------------------------------------------ admission
    async def submit(self, rows: np.ndarray) -> RequestSlice:
        """Queue ``rows`` for the next micro-batch; await this request's slice.

        Parameters
        ----------
        rows:
            ``(n_rows, n_features)`` float matrix (``n_rows >= 1``).

        Returns
        -------
        RequestSlice
            This request's row-aligned predictions/probabilities plus the
            serving model version and the fill of the batch that carried it.

        Raises
        ------
        ServingClosedError
            The batcher is draining or was never started.
        QueueFullError
            Admission would overflow ``max_queue_rows``.
        DeadlineExceededError
            ``request_timeout`` expired before the dispatch answered.
        DispatchError
            The micro-batch dispatch itself raised.
        """
        if self._closed or self._flush_task is None:
            raise ServingClosedError("the serving queue is not accepting requests")
        n = int(rows.shape[0])
        if self._pending_rows + n > self.max_queue_rows:
            self.stats.rejected += 1
            # Suggest retrying once the backlog has had time to dispatch.
            backlog_batches = math.ceil((self._pending_rows + n) / self.batch_size)
            mean_dispatch = self.stats.dispatch_seconds / max(self.stats.batches, 1)
            raise QueueFullError(
                f"serving queue is full ({self._pending_rows} rows queued, "
                f"bound {self.max_queue_rows}); retry later",
                retry_after=math.ceil(backlog_batches * mean_dispatch),
            )
        loop = asyncio.get_running_loop()
        item = _Pending(rows, loop.create_future(), time.monotonic())
        self._pending.append(item)
        self._pending_rows += n
        self.stats.requests += 1
        self.stats.rows += n
        self._wakeup.set()
        if self.request_timeout is None:
            return await item.future
        try:
            return await asyncio.wait_for(item.future, timeout=self.request_timeout)
        except asyncio.TimeoutError:
            # wait_for cancelled the future; the flush loop will notice the
            # abandoned slot (future.done()) and drop its rows on the floor.
            self.stats.timeouts += 1
            raise DeadlineExceededError(
                f"request not served within {self.request_timeout:g}s"
            ) from None

    # ------------------------------------------------------------ flushing
    async def _settle(self) -> str:
        """Let requests that have already arrived reach the queue; returns the flush reason.

        Runs only while the dispatch worker is free.  Bytes on a socket need
        event-loop turns, not time, to be queued — one for the selector to
        hand them to the stream, one for the handler to parse and ``submit``
        — so yield two turns at a time until a round admits nothing new.
        """
        seen = None  # admissions counted before the last round
        while self._pending_rows < self.batch_size:
            if self._closed:
                return "drain"
            if seen == self.stats.requests:
                return "idle"
            oldest = self._pending[0].enqueued_at
            if seen is not None and time.monotonic() - oldest >= self.deadline:
                return "deadline"
            seen = self.stats.requests
            await asyncio.sleep(0)
            await asyncio.sleep(0)
        return "full"

    def _collect(self) -> List[_Pending]:
        """Pop whole queued requests up to ``batch_size`` rows (at least one)."""
        batch: List[_Pending] = []
        taken = 0
        while self._pending:
            item = self._pending[0]
            n = int(item.rows.shape[0])
            if batch and taken + n > self.batch_size:
                break
            self._pending.popleft()
            self._pending_rows -= n
            batch.append(item)
            taken += n
        return batch

    async def _flush_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            while not self._pending:
                if self._closed:
                    return
                self._wakeup.clear()
                await self._wakeup.wait()
            reason = await self._settle()
            batch = self._collect()
            live = [item for item in batch if not item.future.done()]
            if not live:
                continue
            matrix = (
                live[0].rows
                if len(live) == 1
                else np.concatenate([item.rows for item in live], axis=0)
            )
            started = time.monotonic()
            try:
                result = await loop.run_in_executor(self._executor, self._dispatch, matrix)
            except Exception as exc:  # noqa: BLE001 - forwarded to every waiter
                self.stats.dispatch_errors += 1
                error = DispatchError(f"micro-batch dispatch failed: {exc}")
                error.__cause__ = exc
                for item in live:
                    if not item.future.done():
                        item.future.set_exception(error)
                continue
            self.stats.dispatch_seconds += time.monotonic() - started
            self.stats.batches += 1
            self.stats.batch_rows += int(matrix.shape[0])
            counter = f"flush_{reason}"
            setattr(self.stats, counter, getattr(self.stats, counter) + 1)
            offset = 0
            for item in live:
                n = int(item.rows.shape[0])
                if not item.future.done():
                    item.future.set_result(
                        RequestSlice(
                            predictions=result.predictions[offset : offset + n],
                            probabilities=result.probabilities[offset : offset + n],
                            model_version=result.model_version,
                            batch_rows=int(matrix.shape[0]),
                        )
                    )
                offset += n
