"""The :class:`Communicator` interface: MPI-shaped collectives for every transport.

The paper's scaling story is that local BCPNN learning needs only sparse
collectives — one allreduce of sufficient statistics per batch — so the whole
distributed stack can be written against a tiny MPI-like surface and remain
transport-agnostic.  This module defines that surface:

* **SPMD collectives** (``allreduce``, ``allgather``, ``bcast``, ``barrier``,
  ``scatter_rows``): called symmetrically by every rank from inside a
  :meth:`Communicator.run` program, exactly like their mpi4py counterparts.
  ``allgather`` supports ragged per-rank shapes (the header travels with the
  payload), so callers never pad.
* **nonblocking collectives** (``iallreduce``): returns a
  :class:`CommRequest` immediately so the caller can overlap local compute
  with the reduction and collect the result with :meth:`CommRequest.wait`.
  The contribution is *captured at call time* on every transport (reduced
  eagerly, snapshotted, or put on the wire), so the caller may
  reuse its buffer as soon as ``iallreduce`` returns — the property the
  software-pipelined training loop relies on.
* **rank-0 program launch** (:meth:`Communicator.run`): the driver process is
  rank 0 and executes the program inline; the transport supplies the other
  ranks (threads, OS processes, or nothing for the serial transport).  This
  is the moral equivalent of ``mpirun`` for environments without one.
* **driver-side combine helpers** (:meth:`reduce_parts`,
  :meth:`gather_parts`): deterministic rank-ordered reductions over *lists
  of per-rank contributions* — kept so the simulated-sharding
  :class:`~repro.backend.distributed.DistributedBackend` runs unchanged on
  any transport.  For convenience ``allreduce``/``allgather`` dispatch on
  input type: a list/tuple means the legacy driver-side mode, an array
  means the SPMD mode.

Determinism contract: every transport reduces contributions in rank order
(0, 1, …, size-1), so results are bit-for-bit reproducible for a fixed rank
count and match the serial run up to floating-point summation order.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import BackendError
from repro.utils.arrays import split_into_chunks

__all__ = ["Communicator", "CommRequest", "CompletedRequest", "REDUCE_OPS", "split_ranks"]

#: Driver-side reductions over stacked per-rank contributions (rank order).
REDUCE_OPS: Dict[str, Callable[[Sequence[np.ndarray]], np.ndarray]] = {
    "sum": lambda arrays: np.sum(arrays, axis=0),
    "mean": lambda arrays: np.mean(arrays, axis=0),
    "max": lambda arrays: np.max(arrays, axis=0),
    "min": lambda arrays: np.min(arrays, axis=0),
}


def split_ranks(n_samples: int, n_ranks: int) -> List[Tuple[int, int]]:
    """Static block partitioning of ``n_samples`` rows over ``n_ranks``."""
    if n_ranks <= 0:
        raise BackendError("n_ranks must be positive")
    return split_into_chunks(n_samples, n_ranks)


def _reduce_in_rank_order(parts: Sequence[np.ndarray], op: str) -> np.ndarray:
    """Elementwise reduction of per-rank arrays, strictly in rank order."""
    if op not in REDUCE_OPS:
        raise BackendError(f"unknown reduction '{op}'; available: {sorted(REDUCE_OPS)}")
    if op == "mean":
        return _reduce_in_rank_order(parts, "sum") / float(len(parts))
    combine = {"sum": np.add, "max": np.maximum, "min": np.minimum}[op]
    out = np.array(parts[0], dtype=np.float64, copy=True)
    for part in parts[1:]:
        combine(out, part, out=out)
    return out


class CommRequest(ABC):
    """Handle for one in-flight nonblocking collective (MPI Request-shaped).

    ``wait()`` blocks until the collective completes and returns its result;
    calling it again returns the same result without further communication.
    ``test()`` is a non-blocking completion probe: ``True`` means ``wait()``
    would return promptly (the result is ready, or every peer has reached
    the rendezvous).  Requests are single-collective: they are created by
    ``iallreduce`` and never reused.
    """

    @abstractmethod
    def wait(self) -> np.ndarray:
        """Block until the collective completes; return the reduced array."""

    @abstractmethod
    def test(self) -> bool:
        """Whether :meth:`wait` would return without blocking."""


class CompletedRequest(CommRequest):
    """An already-finished request wrapping an eagerly computed result.

    The serial and thread transports (and any transport without a genuinely
    asynchronous path) complete nonblocking collectives on call and hand the
    result back through this wrapper, so SPMD programs written against the
    nonblocking API run unchanged — the overlap window is simply empty.
    """

    __slots__ = ("_value",)

    def __init__(self, value: np.ndarray) -> None:
        self._value = value

    def wait(self) -> np.ndarray:
        return self._value

    def test(self) -> bool:
        return True


class Communicator(ABC):
    """Abstract MPI-like communicator; one instance is one rank's view.

    The object handed to user code *is* rank 0's view (the driver).  Inside
    :meth:`run`, each rank receives its own view with the same interface, so
    SPMD programs read identically across the serial, thread, tcp and
    mpi4py transports.
    """

    #: Transport name ("serial", "thread", "tcp", "mpi").
    transport: str = "abstract"

    #: Capability flags (class attributes, surfaced by
    #: :func:`repro.comm.factory.transport_capabilities`):
    #:
    #: * ``multihost`` — ranks may live on different machines (socket/MPI
    #:   transports); the in-process transports are pinned to one host.
    #: * ``fault_tolerant`` — :meth:`recover` can restore the communicator
    #:   after a failed rank (respawn or re-admission), so the driver may
    #:   retry a program instead of failing the job.
    #: * ``nonblocking`` — ``iallreduce`` is genuinely split-phase (the
    #:   overlap window is real); transports without it complete eagerly via
    #:   :class:`CompletedRequest`, which is semantically identical but
    #:   hides no latency.
    multihost: bool = False
    fault_tolerant: bool = False
    nonblocking: bool = False

    def __init__(self) -> None:
        self.collective_calls: Dict[str, int] = {
            "allreduce": 0,
            "iallreduce": 0,
            "allgather": 0,
            "bcast": 0,
            "barrier": 0,
            "scatter": 0,
            "run": 0,
        }
        self.bytes_communicated = 0

    # ------------------------------------------------------------- identity
    @property
    @abstractmethod
    def rank(self) -> int:
        """This view's rank (0 for the driver-held communicator)."""

    @property
    @abstractmethod
    def size(self) -> int:
        """Number of ranks in the communicator."""

    # ------------------------------------------------------ SPMD collectives
    @abstractmethod
    def _allreduce_array(self, array: np.ndarray, op: str) -> np.ndarray:
        """Combine this rank's ``array`` with every other rank's."""

    @abstractmethod
    def _allgather_array(self, array: np.ndarray) -> List[np.ndarray]:
        """Every rank receives ``[rank0's array, ..., rankN-1's array]``."""

    @abstractmethod
    def bcast(self, array: Optional[np.ndarray], root: int = 0) -> np.ndarray:
        """Every rank receives a copy of the root's array.

        Parameters
        ----------
        array:
            On the root rank: the array to broadcast.  Non-roots pass
            ``None`` or a placeholder; their argument is ignored.
        root:
            Rank whose array is distributed (default 0, the driver).

        Returns
        -------
        numpy.ndarray
            A private copy of the root's array, on every rank.

        Raises
        ------
        BackendError
            The rendezvous timed out (a rank crashed or wedged).
        """

    @abstractmethod
    def barrier(self) -> None:
        """Block until every rank reaches the barrier.

        Raises
        ------
        BackendError
            The rendezvous timed out (a rank crashed or wedged) — a broken
            barrier surfaces as an error within the comm timeout, never a
            hang.
        """

    @abstractmethod
    def scatter_rows(self, x: Optional[np.ndarray], root: int = 0) -> np.ndarray:
        """Block-partition the root's 2-D row matrix across the ranks.

        Parameters
        ----------
        x:
            On the root rank: the ``(n_samples, n_features)`` matrix to
            shard.  Non-roots pass ``None``.
        root:
            Rank holding the full matrix (default 0).

        Returns
        -------
        numpy.ndarray
            This rank's contiguous row shard — possibly 0 rows when
            ``n_samples < size``.  Shard boundaries depend only on
            ``(n_samples, size)``, so every rank computes the same split.

        Raises
        ------
        BackendError
            The rendezvous timed out, or ``x`` is not 2-D on the root.
        """

    # --------------------------------------------------------- program launch
    @abstractmethod
    def run(self, fn: Callable, rank_args: Optional[Sequence[tuple]] = None) -> List[object]:
        """Execute ``fn(view, *rank_args[rank])`` once per rank.

        Rank 0 runs inline in the calling process/thread (so live objects in
        its arguments stay live — e.g. the driver's model replica ends up
        trained in place); the transport supplies the remaining ranks.
        Returns the per-rank results in rank order.  ``fn`` must be a
        module-level callable for the tcp transport (it crosses a process
        boundary by reference).
        """

    def _iallreduce_array(self, array: np.ndarray, op: str) -> CommRequest:
        """Default nonblocking allreduce: complete eagerly on call.

        Transports with a genuinely split-phase path (tcp rounds, MPI
        requests) override this; everything else reduces inline and
        returns a :class:`CompletedRequest`, which is semantically identical
        — the overlap window is just empty.  The call is re-labelled from
        ``allreduce`` to ``iallreduce`` in ``collective_calls`` so the
        benchmark tables count the nonblocking path separately.
        """
        out = self._allreduce_array(array, op)
        self.collective_calls["allreduce"] -= 1
        self.collective_calls["iallreduce"] += 1
        return CompletedRequest(out)

    # ------------------------------------------------------------ dispatchers
    def allreduce(self, value, op: str = "sum"):
        """SPMD allreduce of one array, or legacy combine of a per-rank list.

        Parameters
        ----------
        value:
            This rank's contribution (any array-like), or — driver-side
            legacy mode — a list/tuple of per-rank contributions, which is
            forwarded to :meth:`reduce_parts`.
        op:
            Reduction operator: ``"sum"`` (default), ``"max"``, ``"min"``
            or ``"mean"``.

        Returns
        -------
        numpy.ndarray
            The reduction over all ranks' contributions, identical on
            every rank (reduced in rank order — deterministic).

        Raises
        ------
        BackendError
            Unknown ``op``, mismatched contribution shapes (legacy mode),
            or a transport rendezvous timeout.
        """
        if isinstance(value, (list, tuple)):
            return self.reduce_parts(value, op)
        return self._allreduce_array(np.asarray(value), op)

    def iallreduce(self, value, op: str = "sum") -> CommRequest:
        """Nonblocking SPMD allreduce; returns a :class:`CommRequest`.

        The contribution is captured at call time, so ``value``'s buffer may
        be reused immediately.  All ranks must issue their nonblocking
        collectives in the same order and eventually ``wait()`` on each
        request (SPMD programs do so by construction).
        """
        if isinstance(value, (list, tuple)):
            raise BackendError(
                "iallreduce takes a single array (SPMD mode); driver-side "
                "per-rank lists go through reduce_parts()"
            )
        return self._iallreduce_array(np.asarray(value), op)

    def allgather(self, value):
        """SPMD allgather of one array, or legacy gather of a per-rank list.

        Parameters
        ----------
        value:
            This rank's contribution (arrays may be ragged across ranks —
            e.g. uneven prediction shards), or a per-rank list in the
            driver-side legacy mode (forwarded to :meth:`gather_parts`).

        Returns
        -------
        list[numpy.ndarray]
            ``[rank0's array, ..., rankN-1's array]`` on every rank.

        Raises
        ------
        BackendError
            A transport rendezvous timeout, or mismatched list length in
            legacy mode.
        """
        if isinstance(value, (list, tuple)):
            return self.gather_parts(value)
        return self._allgather_array(np.asarray(value))

    # ----------------------------------------------- driver-side legacy mode
    def _check_parts(self, parts: Sequence[np.ndarray], op_name: str) -> List[np.ndarray]:
        if len(parts) != self.size:
            raise BackendError(
                f"{op_name} expected {self.size} per-rank contributions, got {len(parts)}"
            )
        arrays = [np.asarray(p, dtype=np.float64) for p in parts]
        shapes = {a.shape for a in arrays}
        if len(shapes) != 1:
            raise BackendError(f"{op_name} contributions have mismatched shapes: {shapes}")
        return arrays

    def reduce_parts(self, parts: Sequence[np.ndarray], op: str = "sum") -> np.ndarray:
        """Deterministically combine a list of per-rank contributions.

        This is the driver-side simulation mode: all contributions already
        live in the calling process and are reduced in rank order without
        any transport involvement.
        """
        if op not in REDUCE_OPS:
            raise BackendError(f"unknown reduction '{op}'; available: {sorted(REDUCE_OPS)}")
        arrays = self._check_parts(parts, "allreduce")
        self.collective_calls["allreduce"] += 1
        self.bytes_communicated += sum(a.nbytes for a in arrays)
        return REDUCE_OPS[op](arrays)

    def gather_parts(self, parts: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Driver-side allgather: returns copies of the per-rank list."""
        arrays = self._check_parts(parts, "allgather")
        self.collective_calls["allgather"] += 1
        self.bytes_communicated += sum(a.nbytes for a in arrays) * self.size
        return [a.copy() for a in arrays]

    # -------------------------------------------------------------- lifecycle
    def recover(self) -> bool:
        """Attempt to restore the communicator after a failed rank.

        Fault-tolerant transports (``fault_tolerant`` is ``True``) respawn a
        dead local worker or re-admit a reconnecting remote one (tcp) and
        return ``True`` once the pool is whole again, so the driver can roll
        its model back to the last snapshot and re-launch the SPMD program.
        The default — transports without a recovery path — returns
        ``False``: the caller must treat the failure as fatal.
        """
        return False

    def close(self) -> None:
        """Release transport resources (worker processes, sockets)."""

    def __enter__(self) -> "Communicator":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(transport={self.transport!r}, size={self.size})"
