"""Optional mpi4py adapter behind the :class:`Communicator` interface.

When ``mpi4py`` is importable (an actual cluster), :class:`MPIComm` exposes a
real MPI communicator through the exact surface the serial/thread/tcp
transports implement, so code written against :mod:`repro.comm` runs under
``mpirun`` unchanged.  The module degrades gracefully when mpi4py is absent:
``HAVE_MPI`` is ``False`` and constructing :class:`MPIComm` raises a
:class:`~repro.exceptions.BackendError` instead of an ImportError at import
time.

Under MPI there is no worker pool to drive: every rank already executes the
whole program, so :meth:`MPIComm.run` simply executes the local rank's share
of the SPMD function and allgathers the per-rank results — the launch
topology is ``mpirun``'s job.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.comm.base import CommRequest, Communicator, split_ranks
from repro.exceptions import BackendError

try:  # pragma: no cover - mpi4py is not installed in the CI environment
    from mpi4py import MPI as _MPI

    HAVE_MPI = True
except ImportError:  # pragma: no cover - the usual path in CI
    _MPI = None
    HAVE_MPI = False

__all__ = ["MPIComm", "HAVE_MPI"]


class _MPIRequest(CommRequest):  # pragma: no cover - exercised only with mpi4py
    """Wrapper over an mpi4py nonblocking request (pickle-based ``iallreduce``)."""

    __slots__ = ("_request", "_result", "_done")

    def __init__(self, request) -> None:
        self._request = request
        self._result: Optional[np.ndarray] = None
        self._done = False

    def wait(self) -> np.ndarray:
        if not self._done:
            self._result = np.asarray(self._request.wait())
            self._done = True
        return self._result

    def test(self) -> bool:
        if self._done:
            return True
        done, value = self._request.test()
        if done:
            self._result = np.asarray(value)
            self._done = True
        return bool(done)


class MPIComm(Communicator):  # pragma: no cover - exercised only with mpi4py
    """mpi4py-backed communicator (requires an ``mpirun`` launch)."""

    transport = "mpi"
    multihost = True
    nonblocking = True

    def __init__(self, comm=None) -> None:
        super().__init__()
        if not HAVE_MPI:
            raise BackendError(
                "mpi4py is not installed; use the 'serial', 'thread' or "
                "'tcp' transport instead"
            )
        self._comm = comm if comm is not None else _MPI.COMM_WORLD

    @property
    def rank(self) -> int:
        return int(self._comm.Get_rank())

    @property
    def size(self) -> int:
        return int(self._comm.Get_size())

    # ------------------------------------------------------ SPMD collectives
    def _allreduce_array(self, array: np.ndarray, op: str) -> np.ndarray:
        ops = {"sum": _MPI.SUM, "max": _MPI.MAX, "min": _MPI.MIN}
        self.collective_calls["allreduce"] += 1
        self.bytes_communicated += array.nbytes * self.size
        if op == "mean":
            return self._comm.allreduce(np.asarray(array), op=_MPI.SUM) / float(self.size)
        if op not in ops:
            raise BackendError(f"unknown reduction '{op}'")
        return np.asarray(self._comm.allreduce(np.asarray(array), op=ops[op]))

    def _iallreduce_array(self, array: np.ndarray, op: str) -> CommRequest:
        """Map to mpi4py's nonblocking ``iallreduce`` when the comm has one.

        The pickle-based ``iallreduce`` landed in mpi4py 3.1; older builds
        (or exotic comm objects) fall back to the eager base implementation.
        """
        issue = getattr(self._comm, "iallreduce", None)
        if issue is None:
            return super()._iallreduce_array(array, op)
        ops = {"sum": _MPI.SUM, "max": _MPI.MAX, "min": _MPI.MIN}
        if op == "mean":
            return super()._iallreduce_array(array, op)
        if op not in ops:
            raise BackendError(f"unknown reduction '{op}'")
        self.collective_calls["iallreduce"] += 1
        self.bytes_communicated += array.nbytes * self.size
        # np.array(..., copy=True): capture the contribution at call time so
        # the caller may reuse its buffer immediately (transport contract).
        return _MPIRequest(issue(np.array(array, copy=True), op=ops[op]))

    def _allgather_array(self, array: np.ndarray) -> List[np.ndarray]:
        self.collective_calls["allgather"] += 1
        parts = self._comm.allgather(np.asarray(array))
        self.bytes_communicated += sum(p.nbytes for p in parts)
        return [np.asarray(p) for p in parts]

    def bcast(self, array: Optional[np.ndarray], root: int = 0) -> np.ndarray:
        self.collective_calls["bcast"] += 1
        out = np.asarray(self._comm.bcast(array if self.rank == root else None, root=root))
        self.bytes_communicated += out.nbytes
        return out

    def barrier(self) -> None:
        self.collective_calls["barrier"] += 1
        self._comm.Barrier()

    def scatter_rows(self, x: Optional[np.ndarray], root: int = 0) -> np.ndarray:
        self.collective_calls["scatter"] += 1
        if self.rank == root:
            x = np.asarray(x)
            if x.ndim != 2:
                raise BackendError("scatter_rows root must provide a 2-D matrix")
            chunks = [x[lo:hi] for lo, hi in split_ranks(x.shape[0], self.size)]
        else:
            chunks = None
        out = np.asarray(self._comm.scatter(chunks, root=root))
        self.bytes_communicated += out.nbytes
        return out

    # --------------------------------------------------------- program launch
    def run(self, fn: Callable, rank_args: Optional[Sequence[tuple]] = None) -> List[object]:
        """Execute the local rank's share; allgather the per-rank results.

        Under MPI every rank runs the whole driver program, so ``run`` is a
        collective: each rank calls it and receives the full result list
        (rank order) like the other transports.  Every rank executes with
        ``rank_args[0]`` — the *driver* argument tuple.  Callers build
        ``rank_args`` so that index 0 carries their live objects (model
        replica, input matrix) and indices 1+ carry ``None`` placeholders
        for transports that must ship state to workers; under MPI each rank
        already owns live objects, and the SPMD programs synchronise them
        from rank 0 by broadcast before use.
        """
        self.collective_calls["run"] += 1
        args = tuple(rank_args[0]) if rank_args else ()
        local = fn(self, *args)
        return list(self._comm.allgather(local))
