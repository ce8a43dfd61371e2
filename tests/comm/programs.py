"""SPMD programs only the comm test-suite runs.

Like :mod:`repro.comm.tasks`, these cross the process boundary *by
reference*, so they live at module scope in an importable module; unlike
it, nothing outside ``tests/`` has a use for them.
"""

import os
import signal
import time
from typing import Dict

import numpy as np

from repro.exceptions import BackendError


def dtype_shape_checks(comm) -> Dict[str, Dict[str, object]]:
    """Push awkward arrays through every collective; return what came back.

    Every rank contributes ``base + rank`` in several dtypes and memory
    layouts (0-d, empty, strided and Fortran-order included), with non-zero
    roots, so the driver can assert dtype/shape/value fidelity exactly.
    """
    rank, size = comm.rank, comm.size
    base = np.arange(24, dtype=np.float64).reshape(4, 6) + rank
    cases = {
        "float32": base.astype(np.float32),
        "int64": base.astype(np.int64),
        "bool": base % 2 == 0,
        "zero_d": np.asarray(rank + 0.5),
        "empty": np.empty((0, 3), dtype=np.float64),
        "strided": base[:, ::2],
        "fortran": np.asfortranarray(base),
    }
    out: Dict[str, Dict[str, object]] = {}
    for name, arr in cases.items():
        entry: Dict[str, object] = {
            "reduced": comm.allreduce(arr, op="sum"),
            "gathered": comm.allgather(arr),
            "broadcast": comm.bcast(arr if rank == 1 else None, root=1),
        }
        if arr.ndim == 2:
            entry["shard"] = comm.scatter_rows(arr if rank == size - 1 else None, root=size - 1)
        out[name] = entry
    return out


def ownership_checks(comm, n_elems: int = 4096) -> Dict[str, bool]:
    """Results are caller-owned and inputs are captured, never aliased.

    A later collective must not change an earlier result (even when the
    caller scribbles on the later one), a root's input must not alias its
    result, and a contribution overwritten right after ``iallreduce``
    returns must still reduce to the value it held at call time.
    """
    rank, size = comm.rank, comm.size
    mine = np.full(n_elems, float(rank + 1))
    total = float(sum(range(1, size + 1)))

    first = comm.allreduce(mine, op="sum")
    second = comm.allreduce(mine * 2.0, op="sum")
    second += 1.0
    third = comm.allreduce(mine, op="sum")
    allreduce_ok = bool(np.all(first == total) and np.all(third == total))

    sent = mine.copy()
    got = comm.bcast(sent if rank == 0 else None, root=0)
    later = comm.bcast(sent * 3.0 if rank == 0 else None, root=0)
    later[:] = -1.0
    bcast_ok = bool(np.all(got == 1.0) and not np.shares_memory(got, sent))

    parts = comm.allgather(mine)
    for part in comm.allgather(mine * 5.0):
        part[:] = -1.0
    allgather_ok = all(bool(np.all(p == r + 1.0)) for r, p in enumerate(parts))
    allgather_ok = allgather_ok and not np.shares_memory(parts[rank], mine)

    matrix = np.arange(3.0 * size * 4).reshape(size * 4, 3)
    shard = comm.scatter_rows(matrix if rank == 0 else None, root=0)
    scatter_ok = bool(np.array_equal(shard, matrix[rank * 4 : rank * 4 + 4]))
    shard[:] = -7.0
    scatter_ok = scatter_ok and bool(matrix.min() >= 0.0)

    buf = mine.copy()
    request = comm.iallreduce(buf, op="sum")
    buf[:] = -1.0  # free on return, on rank 0 as much as on the workers
    capture_ok = bool(np.all(request.wait() == total))

    return {
        "allreduce": allreduce_ok,
        "bcast": bcast_ok,
        "allgather": allgather_ok,
        "scatter": scatter_ok,
        "capture": capture_ok,
        "input_untouched": bool(np.all(mine == rank + 1.0)),
    }


def mismatched_post(comm, what: str) -> Dict[str, object]:
    """Ranks disagree on ``what`` (shape/dtype/reduce/op) of one collective.

    Every rank must observe a :class:`~repro.exceptions.BackendError`; each
    reports whether it did and how long that took.
    """
    rank = comm.rank
    started = time.perf_counter()
    try:
        if what == "shape":
            comm.allreduce(np.ones(3 + rank), op="sum")
        elif what == "dtype":
            comm.allreduce(np.ones(4, dtype=np.float64 if rank == 0 else np.float32), op="sum")
        elif what == "reduce":
            comm.allreduce(np.ones(4), op="sum" if rank == 0 else "max")
        elif rank == 0:
            comm.barrier()
        else:
            comm.allreduce(np.ones(4), op="sum")
        raised = False
    except BackendError:
        raised = True
    return {"rank": rank, "raised": raised, "seconds": time.perf_counter() - started}


def freeze_rank(comm, victim: int = 1, n_elems: int = 1 << 23) -> float:
    """Failure injection: ``victim`` contributes, then SIGSTOPs itself.

    The process stays alive and connected but never reads its reply, so a
    payload larger than the socket buffers blocks whoever sends it.  The
    surviving ranks must still get a
    :class:`~repro.exceptions.BackendError` within the transport timeout.
    """
    arr = np.ones(n_elems, dtype=np.float64)
    if comm.rank == victim:
        comm.iallreduce(arr, op="sum")
        os.kill(os.getpid(), signal.SIGSTOP)
    return float(comm.allreduce(arr, op="sum")[0])
