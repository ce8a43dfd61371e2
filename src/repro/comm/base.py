"""The :class:`Communicator` interface: MPI-shaped collectives for every transport.

The paper's scaling story is that local BCPNN learning needs only sparse
collectives — one allreduce of sufficient statistics per batch — so the whole
distributed stack can be written against a tiny MPI-like surface and remain
transport-agnostic.  This module defines that surface:

* **SPMD collectives** (``allreduce``, ``bcast``, ``barrier``): called
  symmetrically by every rank from inside a :meth:`Communicator.run`
  program, exactly like their mpi4py counterparts.
* **rank-0 program launch** (:meth:`Communicator.run`): the driver process is
  rank 0 and executes the program inline; the transport supplies the other
  ranks (threads, OS processes, or nothing for the serial transport).  This
  is the moral equivalent of ``mpirun`` for environments without one.

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

__all__ = ["Communicator", "REDUCE_OPS", "split_ranks"]

#: Reduction operators every transport's ``allreduce`` accepts.
REDUCE_OPS: Tuple[str, ...] = ("sum", "mean", "max", "min")


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


# Kept bare only because benchmarks/e2e/tracepass.py imports it: delete the two together.
class CommRequest:
    pass


class Communicator(ABC):
    """Abstract MPI-like communicator; one instance is one rank's view.

    The object handed to user code *is* rank 0's view (the driver).  Inside
    :meth:`run`, each rank receives its own view with the same interface, so
    SPMD programs read identically across the serial, thread and tcp
    transports.
    """

    #: Transport name ("serial", "thread", "tcp").
    transport: str = "abstract"

    #: Capability flags (class attributes, surfaced by
    #: :func:`repro.comm.factory.transport_capabilities`):
    #:
    #: * ``multihost`` — ranks may live on different machines (the socket
    #:   transport); the in-process transports are pinned to one host.
    #: * ``fault_tolerant`` — :meth:`recover` can restore the communicator
    #:   after a failed rank (respawn or re-admission), so the driver may
    #:   retry a program instead of failing the job.
    multihost: bool = False
    fault_tolerant: bool = False

    def __init__(self) -> None:
        self.collective_calls: Dict[str, int] = {
            "allreduce": 0,
            "bcast": 0,
            "barrier": 0,
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

    # ------------------------------------------------------------ dispatchers
    def allreduce(self, value, op: str = "sum"):
        """SPMD allreduce of one array.

        Parameters
        ----------
        value:
            This rank's contribution (any array-like).
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
            Unknown ``op`` or a transport rendezvous timeout.
        """
        return self._allreduce_array(np.asarray(value), op)

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
