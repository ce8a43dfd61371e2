"""The serial transport: a size-1 communicator whose collectives are no-ops.

Every collective returns (a copy of) the caller's own contribution, so the
same SPMD program that scales over threads or processes runs unchanged —
and bit-for-bit identically — on a single rank.  This is the reference
against which the rank-invariance tests compare the parallel transports.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.comm.base import Communicator, _reduce_in_rank_order
from repro.exceptions import BackendError

__all__ = ["SerialComm"]


class SerialComm(Communicator):
    """Rank-0-only communicator (``size == 1``)."""

    transport = "serial"

    def __init__(self) -> None:
        super().__init__()

    @property
    def rank(self) -> int:
        return 0

    @property
    def size(self) -> int:
        return 1

    # ------------------------------------------------------ SPMD collectives
    def _allreduce_array(self, array: np.ndarray, op: str) -> np.ndarray:
        self.collective_calls["allreduce"] += 1
        self.bytes_communicated += array.nbytes
        return _reduce_in_rank_order([array], op)

    def bcast(self, array: Optional[np.ndarray], root: int = 0) -> np.ndarray:
        if root != 0:
            raise BackendError(f"root {root} out of range for size 1")
        if array is None:
            raise BackendError("bcast root must provide an array")
        self.collective_calls["bcast"] += 1
        arr = np.asarray(array)
        self.bytes_communicated += arr.nbytes
        return np.array(arr, copy=True)

    def barrier(self) -> None:
        self.collective_calls["barrier"] += 1

    # --------------------------------------------------------- program launch
    def run(self, fn: Callable, rank_args: Optional[Sequence[tuple]] = None) -> List[object]:
        self.collective_calls["run"] += 1
        args = tuple(rank_args[0]) if rank_args else ()
        return [fn(self, *args)]
