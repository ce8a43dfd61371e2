"""The thread transport: in-process ranks with real barrier rendezvous.

``ThreadComm`` is the in-process transport that actually *runs* SPMD
programs: :meth:`run` executes rank 0 inline and ranks 1..N-1 on daemon
threads, and the collectives rendezvous through a shared
``threading.Barrier`` with per-rank contribution slots.  NumPy
releases the GIL inside the BLAS kernels, so shard-local GEMMs genuinely
overlap; more importantly the transport exercises the same rendezvous
semantics as the tcp transport with zero serialization cost, which makes it
the fast CI-friendly middle rung of the serial → thread → tcp ladder.

Reduction is performed independently by every rank in rank order, so all
ranks observe identical, deterministic results.

Nonblocking collectives complete on call (the base-class eager default):
the contribution slots are shared and recycled at the next collective, so a
reduction must finish inside its own exchange window — splitting the phases
would buy nothing because the ranks already overlap through the GIL-free
BLAS kernels.  ``iallreduce`` therefore reduces inline and returns a
finished :class:`~repro.comm.base.CompletedRequest`.
"""

from __future__ import annotations

import threading
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.comm.base import Communicator, _reduce_in_rank_order, split_ranks
from repro.exceptions import BackendError

__all__ = ["ThreadComm"]


class _ThreadSharedState:
    """Rendezvous state shared by every rank view of one ThreadComm."""

    def __init__(self, size: int, timeout: float) -> None:
        self.size = size
        self.timeout = timeout
        self.barrier = threading.Barrier(size)
        self.slots: List[Optional[np.ndarray]] = [None] * size


class _ThreadCollectives:
    """Collective implementations over the shared slot table.

    Mixed into both the root communicator (rank 0) and the worker views, so
    the code path is byte-identical for every rank.
    """

    _shared: _ThreadSharedState
    _rank: int
    #: Worker views always run inside a program; the root view toggles this
    #: in :meth:`ThreadComm.run` so a driver-side SPMD collective (which
    #: would block forever — no peers are running) fails fast instead.
    _in_program = True

    def _wait(self) -> None:
        if not self._in_program and self._shared.size > 1:
            raise BackendError(
                "SPMD collectives on a size>1 communicator must be called from "
                "inside run(); for driver-side combines use reduce_parts()/"
                "gather_parts() (or pass a list of per-rank contributions)"
            )
        try:
            self._shared.barrier.wait(self._shared.timeout)
        except threading.BrokenBarrierError as exc:
            raise BackendError(
                "thread collective rendezvous broke (a rank crashed or timed "
                f"out after {self._shared.timeout}s)"
            ) from exc

    def _exchange(self, array: Optional[np.ndarray], consume) -> object:
        """Publish this rank's contribution; ``consume`` the slot table.

        ``consume`` runs *between* the two barriers: callers frequently reuse
        their contribution buffers (e.g. the trainer's packed statistics
        vector is overwritten every batch), so anything read from the slots
        must be copied or reduced before the release barrier lets the owning
        rank proceed to its next write.
        """
        self._shared.slots[self._rank] = array
        self._wait()
        result = consume(list(self._shared.slots))
        self._wait()
        return result

    def _allreduce_array(self, array: np.ndarray, op: str) -> np.ndarray:
        out = self._exchange(array, lambda parts: _reduce_in_rank_order(parts, op))
        self.collective_calls["allreduce"] += 1
        self.bytes_communicated += array.nbytes * self._shared.size
        return out

    def _allgather_array(self, array: np.ndarray) -> List[np.ndarray]:
        parts = self._exchange(array, lambda parts: [np.array(p, copy=True) for p in parts])
        self.collective_calls["allgather"] += 1
        self.bytes_communicated += sum(p.nbytes for p in parts)
        return parts

    def bcast(self, array: Optional[np.ndarray], root: int = 0) -> np.ndarray:
        if not 0 <= root < self._shared.size:
            raise BackendError(f"root {root} out of range for size {self._shared.size}")

        def consume(parts):
            if parts[root] is None:
                raise BackendError("bcast root must provide an array")
            return np.array(parts[root], copy=True)

        out = self._exchange(np.asarray(array) if self._rank == root else None, consume)
        self.collective_calls["bcast"] += 1
        self.bytes_communicated += out.nbytes
        return out

    def barrier(self) -> None:
        self.collective_calls["barrier"] += 1
        self._wait()

    def scatter_rows(self, x: Optional[np.ndarray], root: int = 0) -> np.ndarray:
        if not 0 <= root < self._shared.size:
            raise BackendError(f"root {root} out of range for size {self._shared.size}")

        def consume(parts):
            full = parts[root]
            if full is None or full.ndim != 2:
                raise BackendError("scatter_rows root must provide a 2-D matrix")
            lo, hi = split_ranks(full.shape[0], self._shared.size)[self._rank]
            return np.array(full[lo:hi], copy=True)

        out = self._exchange(np.asarray(x) if self._rank == root else None, consume)
        self.collective_calls["scatter"] += 1
        self.bytes_communicated += out.nbytes
        return out


class _ThreadRankView(_ThreadCollectives, Communicator):
    """Per-rank handle passed to SPMD programs on worker threads."""

    transport = "thread"

    def __init__(self, shared: _ThreadSharedState, rank: int) -> None:
        Communicator.__init__(self)
        self._shared = shared
        self._rank = rank

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self._shared.size

    def run(self, fn: Callable, rank_args: Optional[Sequence[tuple]] = None) -> List[object]:
        raise BackendError("run() cannot be nested inside an SPMD program")


class ThreadComm(_ThreadCollectives, Communicator):
    """Thread-backed communicator; the instance itself is rank 0's view."""

    transport = "thread"

    def __init__(self, size: int, timeout: float = 60.0) -> None:
        Communicator.__init__(self)
        if size <= 0:
            raise BackendError("communicator size must be positive")
        self._rank = 0
        self._in_program = False
        self._shared = _ThreadSharedState(int(size), float(timeout))

    @property
    def rank(self) -> int:
        return 0

    @property
    def size(self) -> int:
        return self._shared.size

    # --------------------------------------------------------- program launch
    def run(self, fn: Callable, rank_args: Optional[Sequence[tuple]] = None) -> List[object]:
        size = self.size
        if rank_args is None:
            rank_args = [()] * size
        if len(rank_args) != size:
            raise BackendError(
                f"run expected {size} per-rank argument tuples, got {len(rank_args)}"
            )
        self.collective_calls["run"] += 1
        if size == 1:
            return [fn(self, *rank_args[0])]

        results: List[object] = [None] * size
        errors: List[Optional[BaseException]] = [None] * size

        def target(rank: int) -> None:
            view = _ThreadRankView(self._shared, rank)
            try:
                results[rank] = fn(view, *rank_args[rank])
            except BaseException as exc:  # noqa: BLE001 - relayed to the driver
                errors[rank] = exc
                self._shared.barrier.abort()

        threads = [
            threading.Thread(target=target, args=(rank,), daemon=True, name=f"comm-rank{rank}")
            for rank in range(1, size)
        ]
        for thread in threads:
            thread.start()
        self._in_program = True
        try:
            results[0] = fn(self, *rank_args[0])
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors[0] = exc
            self._shared.barrier.abort()
        finally:
            self._in_program = False
        for thread in threads:
            thread.join(self._shared.timeout)
        if self._shared.barrier.broken:
            self._shared.barrier.reset()
        # Prefer the originating failure over the sympathetic broken-barrier
        # errors the surviving ranks raise when one rank dies.
        primary = next(
            (e for e in errors if e is not None and not isinstance(e, BackendError)), None
        )
        failure = primary or next((e for e in errors if e is not None), None)
        if failure is not None:
            raise failure
        if any(thread.is_alive() for thread in threads):
            raise BackendError("a thread rank failed to finish within the timeout")
        return results
