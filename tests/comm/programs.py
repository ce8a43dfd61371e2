"""SPMD programs (and a worker entry point) only the comm test-suite runs.

The tcp transport ships :meth:`~repro.comm.Communicator.run` functions to
worker processes *by reference* (module + qualified name), so these live at
module scope in an importable module: collective semantics checks and
failure injection (a rank that crashes or stalls).
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
    layouts (0-d, empty, strided and Fortran-order included) to an allreduce
    and broadcasts it as the root of its own ``bcast``, so the driver can
    assert dtype/shape/value fidelity exactly for every sender.
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
        out[name] = {
            "reduced": comm.allreduce(arr, op="sum"),
            "broadcasts": [
                comm.bcast(arr if rank == root else None, root=root) for root in range(size)
            ],
        }
    return out


def ownership_checks(comm, n_elems: int = 4096) -> Dict[str, bool]:
    """Results are caller-owned and inputs are never aliased.

    A later collective must not change an earlier result (even when the
    caller scribbles on the later one), and a root's input must not alias
    its result (whether the root is rank 0 or a worker).
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

    last = size - 1
    own = mine.copy()
    relayed = comm.bcast(own if rank == last else None, root=last)
    comm.bcast(own * 5.0 if rank == last else None, root=last)[:] = -1.0
    relayed_ok = bool(np.all(relayed == float(size))) and not np.shares_memory(relayed, own)

    return {
        "allreduce": allreduce_ok,
        "bcast": bcast_ok,
        "bcast_from_last": relayed_ok,
        "input_untouched": bool(np.all(mine == rank + 1.0)),
    }


def array_like_checks(comm) -> Dict[str, object]:
    """Lists and Python scalars are a rank's contribution, as arrays are."""
    rank = comm.rank
    return {
        "list": comm.allreduce([float(rank), 1.0], op="sum"),
        "scalar": comm.allreduce(float(rank), op="max"),
        "bcast": comm.bcast([1.0, 2.0] if rank == 0 else None, root=0),
    }


def reused_buffer_rounds(comm, n_elems: int = 300, rounds: int = 4) -> Dict[str, object]:
    """Back-to-back allreduces from one contribution buffer.

    Round ``r`` contributes ``(rank + 1) * (r + 1)`` and overwrites the buffer
    as soon as the call returns, so every round must reduce the value it held
    at call time and no round's result may change under a later one.
    """
    buf = np.empty(n_elems, dtype=np.float64)
    results = []
    for round_no in range(rounds):
        buf[:] = float(comm.rank + 1) * (round_no + 1)
        results.append(comm.allreduce(buf, op="sum"))
        buf[:] = -1.0
    return {
        "values": [float(r[0]) for r in results],
        "flat": [bool(np.all(r == r[0])) for r in results],
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


def exit_before_joining(rank, address, timeout, chunk_bytes) -> None:
    """Stand-in for the tcp worker entry point: die before the handshake."""
    os._exit(3)


def killed_before_joining(rank, address, timeout, chunk_bytes) -> None:
    """Stand-in for the tcp worker entry point: SIGKILLed before the handshake."""
    os.kill(os.getpid(), signal.SIGKILL)


def rank1_exits_before_joining(rank, address, timeout, chunk_bytes) -> None:
    """Rank 1 dies before the handshake; every other rank is a real worker."""
    if rank == 1:
        os._exit(3)
    from repro.comm.tcp import _tcp_worker_main

    _tcp_worker_main(rank, address, timeout, chunk_bytes)


def freeze_rank(comm, victim: int = 1, n_elems: int = 1 << 23) -> float:
    """Failure injection: ``victim`` contributes, then SIGSTOPs itself.

    The process stays alive and connected but never reads its reply, so a
    payload larger than the socket buffers blocks whoever sends it.  The
    surviving ranks must still get a
    :class:`~repro.exceptions.BackendError` within the transport timeout.
    """
    arr = np.ones(n_elems, dtype=np.float64)
    if comm.rank == victim:
        comm._post("allreduce", arr, reduce="sum")  # on the wire; the reply is never read
        os.kill(os.getpid(), signal.SIGSTOP)
    return float(comm.allreduce(arr, op="sum")[0])


FRAME_DTYPES = ("float64", "float32", "int64", "uint8", "bool")
FRAME_SHAPES = ((), (0,), (5,), (3, 4), (2, 3, 4))


def frame_matrix(comm) -> Dict[str, Dict[str, object]]:
    """Every dtype collectives carry x every shape kind, through both
    ``allreduce`` and each root's ``bcast``; returns what came back."""
    out: Dict[str, Dict[str, object]] = {}
    for dtype in FRAME_DTYPES:
        for shape in FRAME_SHAPES:
            arr = (np.arange(int(np.prod(shape))).reshape(shape) + comm.rank) % 3
            arr = arr.astype(dtype)
            out[f"{dtype}{shape}"] = {
                "reduced": comm.allreduce(arr, op="sum"),
                "broadcasts": [
                    comm.bcast(arr if comm.rank == root else None, root=root)
                    for root in range(comm.size)
                ],
            }
    return out


def malformed_frame(comm, what: str) -> None:
    """Rank 1 writes one collective frame whose fixed header lies — an
    unknown op or dtype code, or a shape that is not its payload — then
    every rank enters a barrier, which must raise ``BackendError``."""
    if comm.rank == 1:
        from repro.comm import tcp

        op, dtype, dims = 1, tcp._DTYPE_CODE[np.dtype(np.float64)], (4,)
        if what == "op":
            op = 99
        elif what == "dtype":
            dtype = 99
        else:
            dims = (5,)  # 40 bytes of float64, but the payload is 32
        fields = (1, op, 1, dtype, 1, comm._task, comm._seq, 1, 0, 1 << 20, 32, *dims)
        head = tcp._HEAD.pack(*fields, *tcp._NO_DIMS[1:])
        comm._sock.sendall(head + bytes(32))
    comm.barrier()


def die_between_collectives(comm, pause: float) -> None:
    """Rank 1 dies right after a collective while rank 0 computes for
    ``pause`` s; rank 0's next collective must fail at once."""
    comm.allreduce(np.ones(4), op="sum")
    if comm.rank == 1:
        os._exit(17)
    time.sleep(pause)
    comm.allreduce(np.ones(4), op="sum")


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


def chunked_allreduce_checks(comm, n_elems: int = 23) -> Dict[str, object]:
    """Round-trip allreduces sized around the chunk cap.

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
    return {
        "rank": rank,
        "reduced": reduced,
        "matrix_max": float(matrix[0, 0]),
        "empty_size": int(empty.size),
        "single": float(single[0]),
        "expected": np.arange(n_elems, dtype=np.float64) * size
        + float(sum(range(size))),
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


def crash_rank_chunked(comm, victim: int = 1, n_elems: int = 64) -> np.ndarray:
    """Failure injection: ``victim`` dies mid-way through a chunked allreduce.

    The surviving ranks wait on a multi-chunk round the victim never
    completes; that must surface as a
    :class:`~repro.exceptions.BackendError`, not a hang.
    """
    if comm.rank == victim:
        os._exit(17)
    return comm.allreduce(np.ones(n_elems, dtype=np.float64), op="sum")


def stall_rank(comm, victim: int = 1, seconds: float = 3600.0) -> int:
    """Failure injection: ``victim`` sleeps through the rendezvous.

    The other ranks' barrier wait must time out (transport ``timeout``) and
    raise a :class:`~repro.exceptions.BackendError` instead of hanging.
    """
    if comm.rank == victim:
        time.sleep(seconds)
    comm.barrier()
    return comm.rank
