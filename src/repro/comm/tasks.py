"""Module-level SPMD tasks shared by the tests, benchmarks and diagnostics.

The tcp transport ships :meth:`~repro.comm.Communicator.run` functions to
worker processes *by reference* (module + qualified name), so any function
that crosses the process boundary must live at module scope in an importable
module.  The generic tasks here serve three audiences:

* the comm test-suite (collective semantics checks, failure injection),
* the comm throughput benchmark (:mod:`repro.comm.benchmark`),
* quick interactive smoke tests (``SerialComm().run(tasks.echo_rank)``).
"""

from __future__ import annotations

import os
import time
from typing import Dict

import numpy as np

__all__ = [
    "echo_rank",
    "collective_checks",
    "iallreduce_checks",
    "iallreduce_outstanding_error",
    "allreduce_loop",
    "iallreduce_loop",
    "chunked_allreduce_checks",
    "crash_rank",
    "crash_rank_chunked",
    "stall_rank",
]


def echo_rank(comm) -> Dict[str, int]:
    """Smallest possible SPMD program: report this rank's identity."""
    return {"rank": comm.rank, "size": comm.size, "pid": os.getpid()}


def collective_checks(comm, n_cols: int = 3) -> Dict[str, object]:
    """Exercise every blocking collective; return what this rank observed.

    Each rank contributes arrays derived from its rank number so the driver
    can assert exact expected values for any transport and any size.  The
    last broadcast comes from the last rank and carries ``int64`` values, so
    a non-zero root and a non-float dtype cross the wire too.
    """
    rank, size = comm.rank, comm.size
    reduced = comm.allreduce(np.full(n_cols, float(rank)), op="sum")
    maxed = comm.allreduce(np.full(n_cols, float(rank)), op="max")
    payload = np.arange(n_cols, dtype=np.float64) if rank == 0 else None
    broadcast = comm.bcast(payload, root=0)
    comm.barrier()
    last = size - 1
    ranks = comm.bcast(np.arange(size, dtype=np.int64) if rank == last else None, root=last)
    return {
        "rank": rank,
        "size": size,
        "reduced": reduced,
        "maxed": maxed,
        "broadcast": broadcast,
        "int_ranks": [int(r) for r in ranks],
    }


def iallreduce_checks(comm, n_cols: int = 5, rounds: int = 4) -> Dict[str, object]:
    """Exercise the nonblocking allreduce path; return what this rank saw.

    Issues ``rounds`` back-to-back ``iallreduce`` calls, overwrites the local
    contribution buffer *after* each call returns (the capture-at-call-time
    contract), and checks ``wait()`` idempotency plus ``test()`` after
    completion.
    """
    rank, size = comm.rank, comm.size
    results = []
    buf = np.empty(n_cols, dtype=np.float64)
    for round_no in range(rounds):
        buf[:] = float(rank + 1) * (round_no + 1)
        request = comm.iallreduce(buf, op="sum")
        buf[:] = -1.0  # caller may reuse the buffer immediately
        out = request.wait()
        again = request.wait()  # idempotent: same result, no extra rendezvous
        results.append(
            {
                "value": float(out[0]),
                "same": bool(np.array_equal(out, again)),
                "done": bool(request.test()),
            }
        )
    maxed = comm.iallreduce(np.full(n_cols, float(rank)), op="max").wait()
    return {
        "rank": rank,
        "size": size,
        "rounds": results,
        "maxed": float(maxed[0]),
        "iallreduce_calls": comm.collective_calls["iallreduce"],
        "allreduce_calls": comm.collective_calls["allreduce"],
    }


def chunked_allreduce_checks(comm, n_elems: int = 23) -> Dict[str, object]:
    """Round-trip blocking + nonblocking allreduces sized around the chunk cap.

    Meant to run on a ``TCPComm`` constructed with a tiny ``chunk_bytes`` so
    payloads of ``n_elems`` float64s travel as many chunks (including a
    ragged final one), alongside zero-length and one-element arrays.
    """
    rank, size = comm.rank, comm.size
    big = np.arange(n_elems, dtype=np.float64) + float(rank)
    reduced = comm.allreduce(big, op="sum")
    matrix = comm.allreduce(
        np.full((3, n_elems), float(rank + 1), dtype=np.float64), op="max"
    )
    empty = comm.allreduce(np.empty(0, dtype=np.float64), op="sum")
    single = comm.allreduce(np.array([float(rank)], dtype=np.float64), op="sum")
    nonblocking = comm.iallreduce(big, op="sum").wait()
    return {
        "rank": rank,
        "reduced": reduced,
        "matrix_max": float(matrix[0, 0]),
        "empty_size": int(empty.size),
        "single": float(single[0]),
        "nonblocking_matches": bool(np.array_equal(nonblocking, reduced)),
        "expected": np.arange(n_elems, dtype=np.float64) * size
        + float(sum(range(size))),
    }


def iallreduce_outstanding_error(comm, n_cols: int = 4) -> Dict[str, object]:
    """Check the one-outstanding-request contract of the tcp transport.

    Issues a second ``iallreduce`` while the first is still in flight.  On
    the tcp transport that must raise immediately (exactly one outstanding
    reduction per rank); the eagerly-completing transports accept it.
    Every rank then waits the pending request(s), keeping the rendezvous
    schedule aligned.
    """
    from repro.exceptions import BackendError

    first = comm.iallreduce(np.full(n_cols, float(comm.rank)), op="sum")
    rejected = False
    second = None
    try:
        second = comm.iallreduce(np.ones(n_cols, dtype=np.float64), op="sum")
    except BackendError:
        rejected = True
    out = first.wait()
    if second is not None:
        second.wait()
    return {
        "rank": comm.rank,
        "rejected": rejected,
        "value": float(out[0]),
    }


def crash_rank_chunked(comm, victim: int = 1, n_elems: int = 64) -> np.ndarray:
    """Failure injection: ``victim`` dies mid-way through a chunked allreduce.

    The surviving ranks wait on a multi-chunk round the victim never
    completes; that must surface as a
    :class:`~repro.exceptions.BackendError`, not a hang.
    """
    if comm.rank == victim:
        os._exit(17)
    return comm.allreduce(np.ones(n_elems, dtype=np.float64), op="sum")


def allreduce_loop(
    comm, shape, repeats: int = 20, warmup: int = 3, dtype: str = "float64"
) -> Dict[str, float]:
    """Time ``repeats`` allreduces of one ``shape`` array on this rank.

    Returns the best and the median per-call wall time observed on this
    rank; the driver reads rank 0's figures (all ranks are
    barrier-synchronised, so rank 0's time is the collective's time).
    """
    arr = np.full(shape, float(comm.rank + 1), dtype=np.dtype(dtype))
    expected = float(sum(range(1, comm.size + 1)))
    for _ in range(warmup):
        out = comm.allreduce(arr, op="sum")
    seconds = []
    for _ in range(repeats):
        start = time.perf_counter()
        out = comm.allreduce(arr, op="sum")
        seconds.append(time.perf_counter() - start)
    if not np.allclose(out, expected):  # correctness guard on every rank
        raise AssertionError(f"allreduce produced {out.flat[0]!r}, expected {expected!r}")
    return {
        "rank": comm.rank,
        "seconds_per_call": min(seconds),
        "p50_seconds_per_call": float(np.median(seconds)),
        "nbytes": float(arr.nbytes),
    }


def iallreduce_loop(
    comm, shape, repeats: int = 20, warmup: int = 3, dtype: str = "float64"
) -> Dict[str, float]:
    """Time ``repeats`` nonblocking allreduces of one ``shape`` array.

    Reports two figures per call: the *issue* time (how long ``iallreduce``
    takes to return — the latency the training loop pays inside its compute
    window) and the *total* time (issue + ``wait``).  The gap between the
    two is the overlap window the nonblocking path opens up.
    """
    arr = np.full(shape, float(comm.rank + 1), dtype=np.dtype(dtype))
    expected = float(sum(range(1, comm.size + 1)))
    for _ in range(warmup):
        out = comm.iallreduce(arr, op="sum").wait()
    best_issue = float("inf")
    best_total = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        request = comm.iallreduce(arr, op="sum")
        issued = time.perf_counter()
        out = request.wait()
        done = time.perf_counter()
        best_issue = min(best_issue, issued - start)
        best_total = min(best_total, done - start)
    if not np.allclose(out, expected):  # correctness guard on every rank
        raise AssertionError(f"iallreduce produced {out.flat[0]!r}, expected {expected!r}")
    return {
        "rank": comm.rank,
        "seconds_per_call": best_total,
        "issue_seconds": best_issue,
        "nbytes": float(arr.nbytes),
    }


def crash_rank(comm, victim: int = 1) -> int:
    """Failure injection: hard-kill ``victim`` mid-rendezvous.

    Only meaningful on the tcp transport — ``os._exit`` would take the
    whole interpreter down on the serial/thread transports.  The surviving
    ranks block in a barrier the victim never reaches, which must surface as
    a :class:`~repro.exceptions.BackendError`, not a hang.
    """
    if comm.rank == victim:
        os._exit(17)
    comm.barrier()
    return comm.rank


def stall_rank(comm, victim: int = 1, seconds: float = 3600.0) -> int:
    """Failure injection: ``victim`` sleeps through the rendezvous.

    The other ranks' barrier wait must time out (transport ``timeout``) and
    raise a :class:`~repro.exceptions.BackendError` instead of hanging.
    """
    if comm.rank == victim:
        time.sleep(seconds)
    comm.barrier()
    return comm.rank
