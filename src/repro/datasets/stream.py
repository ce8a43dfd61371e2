"""Minibatch streaming for the execution engine.

:class:`BatchStream` is the single place minibatch chunking happens: the
network's ``fit`` loop, the experiment pipelines and the benchmarks all
iterate the same object, so batch-boundary behaviour (remainder batches,
shuffling determinism, drop-last) is defined once.

Two execution modes:

* synchronous (default) — batches are materialised on demand.  Without
  shuffling the batches are contiguous **views** of the source arrays (zero
  copy); with shuffling they are fancy-indexed copies in the order drawn
  from the stream's RNG.
* prefetch — a background thread gathers up to ``prefetch`` batches ahead of
  the consumer, overlapping the (GIL-releasing) gather/copy with the
  consumer's BLAS-bound compute.  The batch order is drawn before the thread
  starts, so prefetching never changes the stream's determinism.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from repro.exceptions import ConfigurationError, DataError
from repro.utils.rng import as_rng

__all__ = ["Batch", "BatchStream"]


@dataclass
class Batch:
    """One minibatch: features, optional labels and their source indices."""

    x: np.ndarray
    y: Optional[np.ndarray]
    indices: np.ndarray
    ordinal: int

    @property
    def size(self) -> int:
        return int(self.x.shape[0])


class BatchStream:
    """Deterministic minibatch iterator with chunking and optional prefetch.

    Parameters
    ----------
    x:
        2-D feature matrix ``(n_samples, n_features)``.
    y:
        Optional label vector aligned with ``x``.
    batch_size:
        Rows per batch; the final batch holds the remainder unless
        ``drop_last`` is set.
    shuffle:
        Draw a fresh permutation from ``rng`` at the start of every epoch
        (i.e. every ``__iter__`` call) — sharing one generator between the
        stream and the caller reproduces the legacy ``fit`` batch order
        exactly.
    rng:
        Seed or :class:`numpy.random.Generator` used for shuffling.
    drop_last:
        Drop the final batch when it is smaller than ``batch_size``.
    prefetch:
        Number of batches a background thread may prepare ahead of the
        consumer; ``0`` disables the thread entirely.
    """

    def __init__(
        self,
        x: np.ndarray,
        y: Optional[np.ndarray] = None,
        batch_size: int = 128,
        shuffle: bool = False,
        rng=None,
        drop_last: bool = False,
        prefetch: int = 0,
    ) -> None:
        self.x = np.asarray(x)
        if self.x.ndim != 2:
            raise DataError(f"x must be a 2-D matrix, got shape {self.x.shape}")
        self.y = None if y is None else np.asarray(y)
        if self.y is not None and self.y.shape[0] != self.x.shape[0]:
            raise DataError("x and y are misaligned")
        if int(batch_size) <= 0:
            raise ConfigurationError("batch_size must be positive")
        if int(prefetch) < 0:
            raise ConfigurationError("prefetch must be non-negative")
        self.batch_size = int(batch_size)
        self.shuffle = bool(shuffle)
        self.drop_last = bool(drop_last)
        self.prefetch = int(prefetch)
        self._rng = as_rng(rng)

    # ------------------------------------------------------------- sizing
    @property
    def n_samples(self) -> int:
        return int(self.x.shape[0])

    def __len__(self) -> int:
        """Number of batches one epoch yields."""
        if self.drop_last:
            return self.n_samples // self.batch_size
        return -(-self.n_samples // self.batch_size)

    # ----------------------------------------------------------- iteration
    def _epoch_order(self) -> Optional[np.ndarray]:
        """Permutation for this epoch, or ``None`` for in-order streaming."""
        if self.shuffle:
            return self._rng.permutation(self.n_samples)
        return None

    def _gather(self, order: Optional[np.ndarray], start: int, stop: int, ordinal: int) -> Batch:
        if order is None:
            indices = np.arange(start, stop)
            # Contiguous views: zero-copy for the in-order streaming case.
            bx = self.x[start:stop]
            by = None if self.y is None else self.y[start:stop]
        else:
            indices = order[start:stop]
            bx = self.x[indices]
            by = None if self.y is None else self.y[indices]
        return Batch(x=bx, y=by, indices=indices, ordinal=ordinal)

    def _iter_sync(self, order: Optional[np.ndarray]) -> Iterator[Batch]:
        n = self.n_samples
        ordinal = 0
        for start in range(0, n, self.batch_size):
            stop = min(start + self.batch_size, n)
            if self.drop_last and stop - start < self.batch_size:
                break
            yield self._gather(order, start, stop, ordinal)
            ordinal += 1

    def _iter_prefetch(self, order: Optional[np.ndarray]) -> Iterator[Batch]:
        out: "queue.Queue" = queue.Queue(maxsize=self.prefetch)
        sentinel = object()
        abandoned = threading.Event()

        def _put(item) -> bool:
            # Bounded put that gives up if the consumer abandoned the epoch,
            # so an early `break` never leaves the worker blocked forever.
            while not abandoned.is_set():
                try:
                    out.put(item, timeout=0.1)
                    return True
                except queue.Full:
                    continue
            return False

        def worker() -> None:
            try:
                for batch in self._iter_sync(order):
                    if not _put(batch):
                        return
                _put(sentinel)
            except BaseException as exc:  # propagate into the consumer
                _put(exc)

        thread = threading.Thread(target=worker, name="repro-batch-prefetch", daemon=True)
        thread.start()
        try:
            while True:
                item = out.get()
                if item is sentinel:
                    break
                if isinstance(item, BaseException):
                    raise item
                yield item
        finally:
            abandoned.set()
            thread.join(timeout=1.0)

    def __iter__(self) -> Iterator[Batch]:
        order = self._epoch_order()
        if self.prefetch > 0:
            return self._iter_prefetch(order)
        return self._iter_sync(order)
