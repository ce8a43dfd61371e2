"""The tcp transport: socket collectives so ranks can span hosts.

``TCPComm`` is the one :class:`~repro.comm.base.Communicator` whose ranks
are not pinned to one machine.  The topology is a **hub**: the driver
process (rank 0) owns a listening *rendezvous* socket and every worker rank
holds one connection to it; rank 0 itself joins the hub in-process (no
loopback socket).  A collective is a **round**: each rank posts one tagged
contribution.  Rank 0 reads its workers' sockets in its own thread while it
is inside a collective or collecting results, and completes the round where
the last contribution lands: check the ranks agree, reduce strictly in rank
order into one accumulator (deterministic, bit-identical to the other
transports), send that one reply buffer to every worker and keep it.

* **Fixed-header frames** — ``coll``, ``reply`` and ``abort`` frames open
  with one ``struct`` header (kind, op, reduce, task, seq, rank, root, dtype
  code, ndim, shape, chunk size, payload bytes); the payload is the array's
  own memory, sent with the header in one gather ``sendmsg`` and received
  with ``recv_into`` straight into its destination, in ``>I``-prefixed
  chunks above the sender's ``chunk_bytes``.  Only the handshake, ``task``,
  ``result`` and ``shutdown`` frames pickle a header.
* **Crash/timeout -> BackendError, never a hang** — a lost connection or a
  worker's failed result is seen when rank 0 next reads (at the latest in
  its next collective), and every wait is bounded by ``timeout``.  Either
  way the hub broadcasts an ``abort`` frame and every surviving rank raises
  :class:`~repro.exceptions.BackendError` from its next or pending collective.
* **Nonblocking collectives** — ``iallreduce`` is genuinely split-phase:
  the contribution is captured at call time (a worker's goes on the wire,
  rank 0's is snapshotted) and ``wait()`` collects the reply; at most one
  request may be outstanding per rank.
* **Fault tolerance** — the rendezvous listener stays open for the
  communicator's whole life.  :meth:`TCPComm.recover` respawns locally
  spawned workers (or waits for an external worker to reconnect and claim
  its old rank), so a driver can roll back and re-launch after a crash.

Workers are locally spawned by default (``spawn_workers=True``); the spec
``process:N`` is shorthand for exactly that on loopback,
``tcp://127.0.0.1:0?ranks=N``.  For true multi-host runs, construct the
driver with ``spawn_workers=False`` and start each remote worker with::

    python -m repro.comm.tcp --connect HOST:PORT [--rank R]

Workers that omit ``--rank`` are assigned the lowest free rank by the hub.
"""

from __future__ import annotations

import math
import pickle
import select
import socket
import struct
import threading
import time
import traceback
from collections import deque, namedtuple
from multiprocessing import get_context
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import faults
from repro.comm.base import REDUCE_OPS, CommRequest, Communicator
from repro.exceptions import BackendError

__all__ = ["TCPComm"]

_PICKLE_PROTOCOL = 4
# Wire codes index these tables; a control frame's payload is a pickled (header, blob).
_KINDS = ("control", "coll", "reply", "abort")
_OPS = ("", "allreduce", "bcast", "barrier")
_REDUCES = ("",) + REDUCE_OPS
_DTYPES = (None,) + tuple(np.dtype(c) for c in "?bBhHiIqQefdFD")  # code 0: no array
_KIND_CODE, _OP_CODE, _REDUCE_CODE = (
    {name: code for code, name in enumerate(table)} for table in (_KINDS, _OPS, _REDUCES)
)
_DTYPE_CODE = {dtype: code for code, dtype in enumerate(_DTYPES) if code}
_MAX_NDIM = 8
_NO_DIMS = (0,) * _MAX_NDIM
# kind op reduce dtype ndim | task seq rank root | chunk bytes, payload bytes | shape
_HEAD = struct.Struct(f"<5B3xQQiiQQ{_MAX_NDIM}Q")
_CHUNK = struct.Struct(">I")  # bytes in the chunk that follows
_IOV_BATCH = 512  # buffers per sendmsg call (IOV_MAX is 1024 on Linux)
_JOIN_POLL = 0.1  # seconds between liveness checks of spawned workers that have not joined
_COMBINE = {"sum": np.add, "mean": np.add, "max": np.maximum, "min": np.minimum}


#: A collective frame's fixed header, decoded; ``dtype`` is its wire code.
_Head = namedtuple("_Head", "op reduce task seq rank root dtype shape")
_NO_HEAD = _Head("", "", 0, 0, 0, 0, 0, ())


class _Malformed(Exception):
    """A frame read whole whose header names no known code or does not
    describe its payload: the stream is still in step, the task is not."""


# ------------------------------------------------------------------ framing
def _dumps(obj: Any) -> bytes:
    return pickle.dumps(obj, protocol=_PICKLE_PROTOCOL)


def _control(header: Dict[str, Any], blob: bytes = b"") -> bytes:
    """A control frame's payload: its header dict and an opaque blob."""
    return _dumps((header, blob))


def _raw(array: np.ndarray) -> memoryview:
    """A C-contiguous array's own memory as a flat byte view (no copy)."""
    return memoryview(array.reshape(-1).view(np.uint8))


def _bound(sock: socket.socket, timeout: float) -> None:
    """Blocking mode, every send and receive bounded by ``timeout`` in the
    kernel: one system call each, a ``BlockingIOError`` when it runs out."""
    sock.settimeout(None)
    micros = max(round(timeout * 1e6), 1)
    limit = struct.pack("ll", micros // 1_000_000, micros % 1_000_000)
    for option in (socket.SO_RCVTIMEO, socket.SO_SNDTIMEO):
        sock.setsockopt(socket.SOL_SOCKET, option, limit)


def _recv_into(sock: socket.socket, view: memoryview) -> None:
    """Fill ``view`` from the socket or raise ``ConnectionError`` on EOF."""
    while len(view):
        got = sock.recv_into(view)
        if not got:
            raise ConnectionError("peer closed the connection")
        view = view[got:]


def _send_all(sock: socket.socket, buffers: List[Union[bytes, memoryview]]) -> None:
    """Gather-send every buffer with ``sendmsg``, finishing partial sends."""
    while buffers:
        sent = sock.sendmsg(buffers[:_IOV_BATCH])
        done = 0
        while done < len(buffers) and sent >= len(buffers[done]):
            sent -= len(buffers[done])
            done += 1
        del buffers[:done]
        if sent:
            buffers[0] = memoryview(buffers[0])[sent:]


def _send_frame(
    sock: socket.socket,
    kind: str,
    head: _Head,
    payload: Union[np.ndarray, bytes],
    chunk_bytes: int,
) -> None:
    """One frame: the fixed header, then the payload.

    ``payload`` is the C-contiguous array ``head`` describes — sent from its
    own memory, never copied or pickled — or opaque bytes (a control
    frame's pickle, an abort's reason, or empty).  A payload larger than
    ``chunk_bytes`` travels as ``>I``-prefixed chunks of that size.

    Every frame passes through the deterministic fault-injection hooks
    ``tcp.delay`` (sleep before sending) and ``tcp.drop`` (swallow the frame
    entirely — the peer observes a stall/timeout, exactly like a lossy
    link); see :mod:`repro.faults`.
    """
    data = _raw(payload) if isinstance(payload, np.ndarray) else memoryview(payload)
    total = len(data)
    rule = faults.fault_point("tcp.delay", bytes=total)
    if rule is not None:
        time.sleep(rule.param_float("seconds", 0.05))
    if faults.fault_point("tcp.drop", bytes=total) is not None:
        return
    op, reduce, task, seq, rank, root, dtype, shape = head
    ndim = len(shape)
    buffers: List[Union[bytes, memoryview]] = [
        _HEAD.pack(
            _KIND_CODE[kind], _OP_CODE[op], _REDUCE_CODE[reduce], dtype, ndim,
            task, seq, rank, root, chunk_bytes, total, *shape, *_NO_DIMS[ndim:],
        ),
        data,
    ]
    if total > chunk_bytes:
        del buffers[1:]
        for lo in range(0, total, chunk_bytes):
            piece = data[lo : lo + chunk_bytes]
            buffers += (_CHUNK.pack(len(piece)), piece)
    _send_all(sock, buffers)


def _recv_payload(sock: socket.socket, view: memoryview, chunk: int) -> None:
    """Fill ``view`` with a payload sent at chunk size ``chunk``; chunk
    prefixes are re-validated."""
    if len(view) <= chunk:
        _recv_into(sock, view)
        return
    prefix = bytearray(_CHUNK.size)
    while len(view):
        _recv_into(sock, memoryview(prefix))
        (n,) = _CHUNK.unpack(prefix)
        if n != min(chunk, len(view)):
            raise ConnectionError(f"corrupt chunk framing ({n} bytes)")
        _recv_into(sock, view[:n])
        view = view[n:]


def _recv_frame(sock: socket.socket, head_buf: memoryview) -> Tuple[str, Any, Any]:
    """Inverse of :func:`_send_frame` into the reader's header buffer:
    ``(kind, header, payload)``, a control frame's header being its dict.

    Array payloads land in fresh (hence caller-owned) arrays.  Raises
    :class:`_Malformed` once it has read the payload of a frame whose header
    does not describe it, ``ConnectionError`` when the stream breaks.
    """
    _recv_into(sock, head_buf)
    kind, op, reduce, code, ndim, task, seq, rank, root, chunk, total, *dims = (
        _HEAD.unpack_from(head_buf)
    )
    if total and not chunk:
        raise ConnectionError("frame header names no chunk size")
    try:
        name, dtype = _KINDS[kind], _DTYPES[code]
        head = _Head(_OPS[op], _REDUCES[reduce], task, seq, rank, root, code, tuple(dims[:ndim]))
        size = math.prod(head.shape) * dtype.itemsize if code else 0
        if ndim > _MAX_NDIM or (name in ("coll", "reply") and size != total):
            raise ValueError
    except (IndexError, ValueError):
        _recv_payload(sock, memoryview(bytearray(total)), chunk)
        fields = (kind, op, reduce, code, tuple(dims[:ndim]))
        raise _Malformed(
            f"(kind, op, reduce, dtype, shape) = {fields} names an unknown code "
            f"or does not describe its {total}-byte payload"
        ) from None
    if name == "coll" or name == "reply":
        payload = np.empty(head.shape, dtype) if code else None
        if code:
            _recv_payload(sock, _raw(payload), chunk)
        return name, head, payload
    blob = bytearray(total)
    _recv_payload(sock, memoryview(blob), chunk)
    if name == "abort":
        return name, head, blob.decode(errors="replace")
    header, blob = pickle.loads(blob)
    return str(header["kind"]), header, blob


def _discard(sock: socket.socket) -> None:
    """Shut ``sock`` down (the peer sees EOF at once) and close it."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    sock.close()


# ---------------------------------------------------------------- rank view
class _TCPRankView(Communicator):
    """One rank's collectives; subclasses supply the link to the hub.

    The link is three methods: ``_submit(head, array)`` delivers this
    rank's contribution to a round, ``_await(seq)`` blocks (bounded by
    ``timeout``) for that round's reply, and ``_ready(seq)`` probes for it
    without blocking.
    """

    transport = "tcp"
    multihost = True
    fault_tolerant = True
    nonblocking = True

    #: Worker views always run inside a program; the driver (TCPComm)
    #: toggles this in :meth:`TCPComm.run`, so a driver-side SPMD collective
    #: outside run() fails fast instead of waiting for absent peers.
    _in_program = True

    def __init__(self, rank: int, size: int, timeout: float, chunk_bytes: int) -> None:
        Communicator.__init__(self)
        self._rank = int(rank)
        self._size = int(size)
        self._timeout = float(timeout)
        self._chunk = int(chunk_bytes)
        # Collective sequencing is scoped per run() task: _begin_task resets
        # the counter, and every frame carries its task id, so frames from an
        # aborted task can never be confused with the current one.
        self._task = 0
        self._seq = 0
        self._nb_pending: Optional["_TCPRequest"] = None

    # ------------------------------------------------------------- identity
    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self._size

    def run(self, fn: Callable, rank_args: Optional[Sequence[tuple]] = None) -> List[object]:
        raise BackendError("run() cannot be nested inside an SPMD program")

    # ------------------------------------------------------------- plumbing
    def _begin_task(self, task: int) -> None:
        self._task = int(task)
        self._seq = 0
        self._nb_pending = None

    def _post(
        self, op: str, array: Optional[np.ndarray] = None, reduce: str = "", root: int = 0
    ) -> int:
        """Contribute to this rank's next round; returns its sequence."""
        if not self._in_program and self._size > 1:
            raise BackendError(
                "SPMD collectives on a size>1 communicator must be called from "
                "inside run()"
            )
        code, shape = 0, ()
        if array is not None:
            array = np.asarray(array, order="C")
            code, shape = _DTYPE_CODE.get(array.dtype, 0), array.shape  # native byte order only
            if not code or array.ndim > _MAX_NDIM:
                raise BackendError(
                    f"tcp collectives carry raw array memory (numbers, at most {_MAX_NDIM} "
                    f"dimensions), not {array.dtype} arrays of {array.ndim} dimensions"
                )
        seq = self._seq
        self._seq += 1
        self._submit(_Head(op, reduce, self._task, seq, self._rank, root, code, shape), array)
        return seq

    # ------------------------------------------------------ SPMD collectives
    def _allreduce_array(self, array: np.ndarray, op: str) -> np.ndarray:
        if op not in REDUCE_OPS:
            raise BackendError(f"unknown reduction '{op}'; available: {sorted(REDUCE_OPS)}")
        out = self._await(self._post("allreduce", array, reduce=op))
        self.collective_calls["allreduce"] += 1
        self.bytes_communicated += array.nbytes * self._size
        return out

    def _iallreduce_array(self, array: np.ndarray, op: str) -> CommRequest:
        if op not in REDUCE_OPS:
            raise BackendError(f"unknown reduction '{op}'; available: {sorted(REDUCE_OPS)}")
        if self._nb_pending is not None:
            raise BackendError(
                "a nonblocking collective is already outstanding on this rank; "
                "wait() on it before issuing the next one"
            )
        # Genuinely split-phase: the contribution is captured now (on the
        # wire, or snapshotted on rank 0), the reply is collected in wait()
        # — local compute overlaps the reduction.
        request = _TCPRequest(self, self._post("allreduce", array, reduce=op), array.nbytes)
        self._nb_pending = request
        self.collective_calls["iallreduce"] += 1
        return request

    def bcast(self, array: Optional[np.ndarray], root: int = 0) -> np.ndarray:
        if not 0 <= root < self._size:
            raise BackendError(f"root {root} out of range for size {self._size}")
        if self._rank == root and array is None:
            raise BackendError("bcast root must provide an array")
        contribution = np.asarray(array) if self._rank == root else None
        out = self._await(self._post("bcast", contribution, root=int(root)))
        self.collective_calls["bcast"] += 1
        self.bytes_communicated += out.nbytes
        return out

    def barrier(self) -> None:
        self._await(self._post("barrier"))
        self.collective_calls["barrier"] += 1


class _TCPRequest(CommRequest):
    """In-flight nonblocking allreduce on the tcp transport.

    The contribution was captured at ``iallreduce`` time (a worker's is on
    the wire, rank 0's was snapshotted), so the caller's buffer is
    immediately reusable; ``wait()`` collects the hub's reply.
    """

    __slots__ = ("_view", "_seq", "_nbytes", "_result", "_done")

    def __init__(self, view: _TCPRankView, seq: int, nbytes: int) -> None:
        self._view = view
        self._seq = seq
        self._nbytes = int(nbytes)
        self._result: Optional[np.ndarray] = None
        self._done = False

    def wait(self) -> np.ndarray:
        if self._done:
            return self._result
        self._result = self._view._await(self._seq)
        self._done = True
        self._view._nb_pending = None
        self._view.bytes_communicated += self._nbytes * self._view._size
        return self._result

    def test(self) -> bool:
        return self._done or self._view._ready(self._seq)


class _WorkerView(_TCPRankView):
    """A worker rank's endpoint: a single socket to the hub."""

    def __init__(
        self, rank: int, size: int, sock: socket.socket, timeout: float, chunk_bytes: int
    ) -> None:
        _TCPRankView.__init__(self, rank, size, timeout, chunk_bytes)
        self._sock = sock
        self._head = memoryview(bytearray(_HEAD.size))
        self._replies: Dict[int, Optional[np.ndarray]] = {}
        self._aborted: Optional[str] = None
        _bound(sock, self._timeout)

    def _begin_task(self, task: int) -> None:
        _TCPRankView._begin_task(self, task)
        self._replies.clear()
        self._aborted = None

    def _submit(self, head: _Head, array: Optional[np.ndarray]) -> None:
        if self._nb_pending is not None:
            # Rank 0 sends that reply only once it has read this rank's
            # contribution; were we to block in a send while it blocks in
            # one, neither side would read.  So take the reply off the wire
            # before sending.
            self._fill(self._nb_pending._seq)
        try:
            payload = b"" if array is None else array
            _send_frame(self._sock, "coll", head, payload, self._chunk)
        except OSError as exc:
            raise BackendError(f"tcp hub connection lost while sending: {exc}") from exc

    def _read_frame(self) -> None:
        """Read and route one frame from the hub (reply/abort; stale dropped)."""
        try:
            kind, head, payload = _recv_frame(self._sock, self._head)
        except BlockingIOError as exc:  # the kernel's receive timeout ran out
            raise BackendError(
                f"tcp collective timed out after {self._timeout}s "
                "(a rank crashed or stalled)"
            ) from exc
        except _Malformed as exc:
            raise BackendError(f"tcp hub sent a malformed frame: {exc}") from exc
        except (OSError, EOFError) as exc:
            raise BackendError(f"tcp hub connection lost: {exc}") from exc
        if kind not in ("reply", "abort") or head.task != self._task:
            return  # stale frame from a finished or aborted task
        if kind == "abort":
            self._aborted = payload or "aborted"
        else:
            self._replies[head.seq] = payload

    def _fill(self, seq: int, block: bool = True) -> bool:
        """Read frames until the reply for ``seq`` is buffered (order-tolerant).

        ``block=False`` only drains what is already on the wire and reports
        whether ``_await`` would return promptly — an abort counts: it raises.
        """
        while seq not in self._replies:
            if self._aborted is not None:
                if block:
                    raise BackendError(f"tcp collective aborted: {self._aborted}")
                return True
            if not block and not select.select([self._sock], [], [], 0)[0]:
                return False
            self._read_frame()
        return True

    def _await(self, seq: int) -> Optional[np.ndarray]:
        self._fill(seq)
        return self._replies.pop(seq)

    def _ready(self, seq: int) -> bool:
        return self._fill(seq, block=False)

    def _send_result(self, task: int, ok: bool, result: Any) -> None:
        header = {"kind": "result", "task": int(task), "rank": self._rank, "ok": bool(ok)}
        result = _control(header, _dumps(result))
        _send_frame(self._sock, "control", _NO_HEAD, result, self._chunk)


# --------------------------------------------------------------- handshake
def _handshake(
    rank: Optional[int], address: Tuple[str, int], timeout: float, chunk_bytes: int
) -> Tuple[socket.socket, int, int, int]:
    """Connect to the hub; returns ``(sock, rank, size, chunk_bytes)``.

    ``rank=None`` asks the hub to assign the lowest free worker rank (the
    multi-host rendezvous mode).
    """
    host, port = address
    wait = max(float(timeout), 10.0)
    try:
        sock = socket.create_connection((host, int(port)), timeout=wait)
    except OSError as exc:
        raise BackendError(f"could not reach the tcp rendezvous at {host}:{port}: {exc}") from exc
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        hello = _control({"kind": "hello", "rank": rank})
        _send_frame(sock, "control", _NO_HEAD, hello, chunk_bytes)
        kind, header, _ = _recv_frame(sock, memoryview(bytearray(_HEAD.size)))
    except (OSError, _Malformed) as exc:
        sock.close()
        raise BackendError(f"tcp rendezvous handshake failed: {exc}") from exc
    if kind != "welcome":
        sock.close()
        reason = header.get("reason", header) if kind == "reject" else f"a {kind} frame"
        raise BackendError(f"tcp rendezvous rejected the connection: {reason}")
    return sock, int(header["rank"]), int(header["size"]), int(header["chunk_bytes"])


# --------------------------------------------------------------------- hub
class _Hub:
    """Driver-side rendezvous: the listener, and rank 0's round engine.

    Rank 0 is the driver itself and has no connection.  Its thread is the
    only one that reads or writes worker sockets: it reads them inside a
    collective (:meth:`await_local`, :meth:`local_ready`), in
    :meth:`collect` and in :meth:`poll`.  The accept thread (and one
    short-lived thread per handshake) only admits connections.
    """

    def __init__(self, size: int, host: str, port: int, timeout: float, chunk_bytes: int) -> None:
        self._size = int(size)
        self._timeout = float(timeout)
        self._chunk = int(chunk_bytes)
        self._listener = socket.create_server((host, int(port)), backlog=max(8, size))
        self._listener.settimeout(0.5)
        bound_host, bound_port = self._listener.getsockname()[:2]
        self.address: Tuple[str, int] = (host if host else bound_host, int(bound_port))
        self._cond = threading.Condition()  # membership: _conns and _dead
        self._conns: List[Optional[socket.socket]] = [None] * self._size  # [0]: never set
        self._dead: set = set()
        self._head = memoryview(bytearray(_HEAD.size))
        self._queues: List[deque] = [deque() for _ in range(self._size)]
        self._local: Dict[int, Optional[np.ndarray]] = {}  # rank 0's replies by seq
        self._results: Dict[int, Tuple[bool, Any]] = {}  # the current task's, by rank
        self._failed: Optional[str] = None
        self._task = 0
        self._closed = False
        threading.Thread(target=self._accept_loop, name="tcp-hub-accept", daemon=True).start()

    # ------------------------------------------------------------ rendezvous
    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                sock, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed
            threading.Thread(
                target=self._admit, args=(sock,), name="tcp-hub-admit", daemon=True
            ).start()

    def _admit(self, sock: socket.socket) -> None:
        """Handshake one connection: hello -> rank assignment -> welcome."""
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(max(self._timeout, 10.0))
            kind, header, _ = _recv_frame(sock, memoryview(bytearray(_HEAD.size)))
            if kind != "hello":
                raise ConnectionError("expected a hello frame")
            rank = header.get("rank")
            with self._cond:
                free = [r for r in range(1, self._size) if self._conns[r] is None]
                if self._closed:
                    raise ConnectionError("hub closed")
                if rank is None and free:
                    rank = free[0]
                if rank not in free:
                    reason = f"rank {rank} is not free (free worker ranks of {self._size}: {free})"
                    reject = _control({"kind": "reject", "reason": reason})
                    _send_frame(sock, "control", _NO_HEAD, reject, self._chunk)
                    raise ConnectionError(reason)
                welcome = {"kind": "welcome", "rank": rank, "size": self._size}
                welcome = _control(dict(welcome, chunk_bytes=self._chunk))
                _send_frame(sock, "control", _NO_HEAD, welcome, self._chunk)
                _bound(sock, self._timeout)
                self._conns[rank] = sock
                self._dead.discard(rank)
                self._cond.notify_all()
        except (OSError, EOFError, ValueError, pickle.UnpicklingError, _Malformed):
            sock.close()

    def _pump(self, done: Callable[[], bool], timeout: float) -> bool:
        """Read and route worker frames until ``done()``.

        Returns ``False`` once ``timeout`` seconds pass first; ``timeout=0``
        reads only what is already on the wire.
        """
        deadline = time.monotonic() + timeout
        while not done():
            wait = deadline - time.monotonic()
            live = [sock for sock in self._conns if sock is not None]
            ready = select.select(live, [], [], max(wait, 0.0))[0]
            if not ready and wait <= 0.0:
                return False
            for sock in ready:
                if sock in self._conns:  # not dropped by an earlier frame
                    self._read(self._conns.index(sock), sock)
        return True

    def _read(self, rank: int, sock: socket.socket) -> None:
        """Route one frame of worker ``rank``: collectives into rounds, results up."""
        try:
            kind, head, payload = _recv_frame(sock, self._head)
            if kind == "result":
                task, result = int(head["task"]), (bool(head["ok"]), pickle.loads(payload))
        except _Malformed as exc:
            self.fail(f"rank {rank} sent a malformed frame: {exc}")
            return
        except (OSError, EOFError, ValueError, pickle.UnpicklingError):
            self._drop(rank, sock, f"rank {rank} lost its connection")
            return
        if kind == "coll":
            self.post(rank, head, payload)
        elif kind == "result" and task == self._task:
            self._results[rank] = result
            if not result[0]:
                # Its peers may be waiting on a collective it will never post.
                self.fail(f"rank {rank} raised an exception")

    def _drop(self, rank: int, sock: socket.socket, reason: str) -> None:
        """Close ``sock``; if it was ``rank``'s live connection, fail the task."""
        with self._cond:
            current = self._conns[rank] is sock
            if current:
                self._conns[rank] = None
                self._dead.add(rank)
                self._cond.notify_all()
        _discard(sock)
        if current:
            self.fail(reason)

    def send(self, rank: int, kind: str, head: _Head, payload: Any) -> None:
        """One frame to worker ``rank``; a failed or timed-out send drops it."""
        conn = self._conns[rank]
        if conn is None:
            raise BackendError(f"rank {rank} is not connected")
        try:
            _send_frame(conn, kind, head, payload, self._chunk)
        except OSError as exc:
            # A partial frame poisons the stream, and a worker that stopped
            # reading (full socket buffers) would block every later send too.
            reason = f"sending to rank {rank} failed: {exc}"
            self._drop(rank, conn, reason)
            raise BackendError(reason) from exc

    # ---------------------------------------------------------- round engine
    def post(self, rank: int, head: _Head, array: Optional[np.ndarray]) -> None:
        """Queue one contribution; a round's last arrival completes it here."""
        if head.task != self._task or self._failed is not None:
            return  # a finished task, or a poisoned one
        self._queues[rank].append((head, array))
        if not all(self._queues):
            return
        try:
            self._complete([queue.popleft() for queue in self._queues])
        except Exception as exc:  # noqa: BLE001 - surfaced as an abort
            self.fail(f"collective round failed: {exc}")

    def _complete(self, frames: List[Tuple[_Head, Optional[np.ndarray]]]) -> None:
        """Check agreement, compute the round's result, fan the replies out."""
        heads = [head for head, _ in frames]
        first = heads[0]
        if any(head.op != first.op or head.seq != first.seq for head in heads):
            issued = sorted({(head.op, head.seq) for head in heads})
            raise BackendError(f"ranks issued mismatched collectives (op, seq): {issued}")
        parts = [array for _, array in frames]
        if first.op == "allreduce":
            agreed = (first.reduce, first.dtype, first.shape)
            if any((head.reduce, head.dtype, head.shape) != agreed for head in heads):
                posted = [(head.reduce, str(_DTYPES[head.dtype]), head.shape) for head in heads]
                raise BackendError(f"ranks posted mismatched allreduce contributions: {posted}")
            # Rank 0's contribution is its private float64 snapshot, taken
            # at post time: it doubles as the accumulator and the reply.
            reply = parts[0]
            for part in parts[1:]:
                _COMBINE[first.reduce](reply, part, out=reply)
            if first.reduce == "mean":
                reply /= float(self._size)
        elif first.op == "bcast":
            reply = parts[first.root]
            if reply is None:
                raise BackendError("bcast root provided no array")
        elif first.op == "barrier":
            reply = None
        else:
            raise BackendError(f"unknown collective op {first.op!r}")
        code, shape = (0, ()) if reply is None else (_DTYPE_CODE[reply.dtype], reply.shape)
        head = _Head(first.op, "", first.task, first.seq, 0, 0, code, shape)
        for rank in range(1, self._size):
            self.send(rank, "reply", head, b"" if reply is None else reply)
        # Rank 0 last: it owns (and may mutate) the buffer the workers were sent.
        self._local[first.seq] = reply

    def await_local(self, seq: int) -> Optional[np.ndarray]:
        """Rank 0's bounded wait for the reply to its round ``seq``."""
        if not self._pump(lambda: seq in self._local or self._failed is not None, self._timeout):
            raise BackendError(
                f"tcp collective timed out after {self._timeout}s (a rank crashed or stalled)"
            )
        if seq not in self._local:
            raise BackendError(f"tcp collective aborted: {self._failed}")
        return self._local.pop(seq)

    def local_ready(self, seq: int) -> bool:
        return self._pump(lambda: seq in self._local or self._failed is not None, 0.0)

    def fail(self, reason: str) -> None:
        """Poison the current task and tell every live worker."""
        if self._failed is not None or self._closed:
            return
        self._failed = reason
        for queue in self._queues:
            queue.clear()
        self.tell_workers("abort", _NO_HEAD._replace(task=self._task), reason.encode())

    def tell_workers(self, kind: str, head: _Head, payload: bytes) -> None:
        """Best-effort frame to every connected worker."""
        for rank in range(1, self._size):
            try:
                self.send(rank, kind, head, payload)
            except BackendError:  # not connected, or just dropped
                pass

    # ------------------------------------------------------------- task API
    def begin_task(self, task: int) -> None:
        self._task = int(task)
        self._failed = None
        self._local.clear()
        self._results.clear()
        for queue in self._queues:
            queue.clear()

    def collect(self, deadline: float) -> Dict[int, Tuple[bool, Any]]:
        """Every worker's ``(ok, result)`` for the current task, by rank."""
        workers = range(1, self._size)

        def done() -> bool:
            lost = sorted(set(self._dead) - set(self._results))
            if lost:
                raise BackendError(
                    f"worker rank(s) lost their connection without reporting a result: {lost}"
                )
            return all(r in self._results for r in workers)

        if not self._pump(done, deadline):
            raise BackendError(f"timed out after {deadline}s waiting for worker results")
        return {r: self._results.pop(r) for r in workers}

    # ------------------------------------------------------------ membership
    def poll(self) -> None:
        """Take in what arrived while rank 0 was not reading: an EOF drops its rank."""
        self._pump(lambda: False, 0.0)

    def missing_ranks(self) -> List[int]:
        with self._cond:
            return [r for r in range(1, self._size) if self._conns[r] is None]

    def wait_connected(self, deadline: float, check: Callable[[List[int]], None]) -> None:
        """Wait up to ``deadline`` s for every worker rank to join.

        ``check(missing)`` runs every ``_JOIN_POLL`` s and may raise, so the
        driver fails fast on a spawned worker that exited instead of joining.
        """
        give_up = time.monotonic() + deadline
        with self._cond:
            while self.missing_ranks():
                if self._closed:
                    raise BackendError("tcp hub closed while waiting for ranks")
                check(self.missing_ranks())
                if time.monotonic() > give_up:
                    raise BackendError(
                        f"timed out after {deadline}s waiting for rank(s) {self.missing_ranks()} "
                        f"to join the tcp rendezvous at {self.address[0]}:{self.address[1]}"
                    )
                self._cond.wait(_JOIN_POLL)

    # -------------------------------------------------------------- lifecycle
    def close(self) -> None:
        with self._cond:
            if self._closed:
                return
            self._closed = True
            conns = [conn for conn in self._conns if conn is not None]
            self._cond.notify_all()
        try:
            self._listener.close()
        except OSError:
            pass
        for conn in conns:
            _discard(conn)


# ------------------------------------------------------------------ workers
def _worker_loop(view: _WorkerView) -> None:
    """Task loop of one tcp worker (spawned locally or started remotely)."""
    sock = view._sock
    while True:
        try:
            select.select([sock], [], [])  # idle between tasks is not a timeout
            kind, header, payload = _recv_frame(sock, view._head)
        except _Malformed:
            continue
        except (OSError, EOFError):
            return
        if kind == "shutdown":
            return
        if kind != "task":
            continue  # stale reply/abort from a finished task
        task = int(header["task"])
        view._begin_task(task)
        try:
            fn, args = pickle.loads(payload)
            result: Any = fn(view, *args)
            ok = True
        except BaseException:  # noqa: BLE001 - relayed to the driver
            result = traceback.format_exc()
            ok = False
        try:
            view._send_result(task, ok, result)
        except OSError:
            return


def _tcp_worker_main(
    rank: Optional[int], address: Tuple[str, int], timeout: float, chunk_bytes: int
) -> None:
    """Entry point of one worker process (module-level: spawn-picklable)."""
    sock, assigned, size, chunk = _handshake(rank, address, timeout, chunk_bytes)
    with sock:
        _worker_loop(_WorkerView(assigned, size, sock, timeout, chunk))


def _reap(proc: Any, grace: float) -> None:
    """Join a worker process, escalating to terminate then kill if wedged."""
    proc.join(timeout=grace)
    for stop in (proc.terminate, proc.kill):  # kill also reaps a SIGSTOPped worker
        if not proc.is_alive():
            return
        stop()
        proc.join(timeout=1.0)


# ------------------------------------------------------------------- driver
class TCPComm(_TCPRankView):
    """Socket communicator; the driver process is rank 0 and hosts the hub.

    Parameters
    ----------
    size:
        Total number of ranks.
    host / port:
        Rendezvous listener address.  ``port=0`` (the default) binds an
        ephemeral port; the bound address is exposed as :attr:`address` and
        handed to spawned workers.  Use a routable ``host`` for multi-host
        runs.
    timeout:
        Bound, in seconds, on every collective rendezvous, socket read,
        hub-side send and result collection; a crash or wedge surfaces as a
        :class:`~repro.exceptions.BackendError` within this bound.
    chunk_bytes:
        Maximum payload chunk per send: frames for larger arrays are split
        into length-prefixed chunks of at most this size (the chunked
        framing is self-describing, so peers may differ).
    spawn_workers:
        ``True`` (default): spawn ``size - 1`` local worker processes that
        connect back over loopback (the ``process:N`` spec).  ``False``:
        workers are external; the constructor blocks
        (up to ``timeout``) until every rank has joined the rendezvous
        (``python -m repro.comm.tcp --connect HOST:PORT``).
    start_method:
        ``multiprocessing`` start method for locally spawned workers.
    """

    def __init__(
        self,
        size: int,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: float = 120.0,
        chunk_bytes: int = 1 << 20,
        spawn_workers: bool = True,
        start_method: str = "spawn",
    ) -> None:
        if int(size) <= 0:
            raise BackendError("communicator size must be positive")
        if int(chunk_bytes) <= 0:
            raise BackendError("chunk_bytes must be positive")
        _TCPRankView.__init__(self, 0, size, timeout, chunk_bytes)
        self._in_program = False
        self._closed = False
        self._task_counter = 0
        self._spawn = bool(spawn_workers)
        self._workers: Dict[int, Any] = {}
        self._ctx = get_context(start_method) if self._spawn and self._size > 1 else None
        self._hub = _Hub(self._size, host, int(port), self._timeout, self._chunk)
        self.address = self._hub.address
        try:
            if self._spawn:
                for rank in range(1, self._size):
                    self._workers[rank] = self._start_worker(rank)
            self._hub.wait_connected(max(self._timeout, 60.0), self._check_spawned)
        except BaseException:
            self.close()
            raise

    def _start_worker(self, rank: int):
        proc = self._ctx.Process(
            target=_tcp_worker_main,
            args=(rank, self.address, self._timeout, self._chunk),
            daemon=True,
            name=f"tcp-rank{rank}",
        )
        proc.start()
        return proc

    def _check_spawned(self, missing: List[int]) -> None:
        """A locally spawned worker that exited before joining is an error now."""
        for rank in missing:
            proc = self._workers.get(rank)
            if proc is not None and proc.exitcode is not None:
                raise BackendError(
                    f"tcp worker rank {rank} exited with code {proc.exitcode} "
                    "before joining the rendezvous"
                )

    # ------------------------------------------------- in-process hub link
    def _submit(self, head: _Head, array: Optional[np.ndarray]) -> None:
        if array is not None:
            # One snapshot, so the caller's buffer is free on return (the
            # iallreduce contract) and the round's result is caller-owned;
            # for allreduce it is also the hub's float64 accumulator.
            dtype = np.float64 if head.op == "allreduce" else None
            array = np.array(array, dtype=dtype, order="C")
        self._hub.post(0, head, array)

    def _await(self, seq: int) -> Optional[np.ndarray]:
        return self._hub.await_local(seq)

    def _ready(self, seq: int) -> bool:
        return self._hub.local_ready(seq)

    # --------------------------------------------------------- program launch
    def run(self, fn: Callable, rank_args: Optional[Sequence[tuple]] = None) -> List[object]:
        if self._closed:
            raise BackendError("communicator has been closed")
        size = self.size
        if rank_args is None:
            rank_args = [()] * size
        if len(rank_args) != size:
            raise BackendError(f"run expected {size} per-rank arg tuples, got {len(rank_args)}")
        self._hub.poll()
        missing = self._hub.missing_ranks()
        if missing:
            raise BackendError(
                f"worker rank(s) {missing} are not connected; call recover() "
                "before launching another program"
            )
        self.collective_calls["run"] += 1
        self._task_counter += 1
        task_id = self._task_counter
        self._hub.begin_task(task_id)
        self._begin_task(task_id)
        for rank in range(1, size):
            task = _control({"kind": "task", "task": task_id}, _dumps((fn, tuple(rank_args[rank]))))
            self._hub.send(rank, "control", _NO_HEAD, task)

        local_error: Optional[BaseException] = None
        local_result: object = None
        self._in_program = True
        try:
            local_result = fn(self, *rank_args[0])
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            local_error = exc
            self._hub.fail(f"driver rank 0 failed: {type(exc).__name__}: {exc}")
        finally:
            self._in_program = False

        remote: Dict[int, Tuple[bool, Any]] = {}
        if size > 1:
            remote = self._hub.collect(deadline=self._timeout + 5.0)
        failures = {rank: payload for rank, (ok, payload) in remote.items() if not ok}
        if local_error is not None and not isinstance(local_error, BackendError):
            raise local_error
        if failures:
            rank, text = sorted(failures.items())[0]
            raise BackendError(f"worker rank {rank} failed:\n{text}")
        if local_error is not None:
            raise local_error
        return [local_result] + [remote[rank][1] for rank in range(1, size)]

    # -------------------------------------------------------- fault tolerance
    def recover(self) -> bool:
        """Respawn (or await re-admission of) every missing rank.

        Locally spawned workers are reaped and respawned; external workers
        keep their rank reserved and are simply waited for (the rendezvous
        listener is open for the communicator's whole life, so a restarted
        remote worker reconnects with ``--rank R`` and is re-admitted).
        Returns ``True`` once every rank is connected again and ``False`` if
        one is still missing after the wait; a respawned worker that exits
        before joining raises :class:`~repro.exceptions.BackendError`.
        """
        if self._closed:
            return False
        self._hub.poll()
        for rank in self._hub.missing_ranks():
            proc = self._workers.get(rank)
            if proc is not None:
                _reap(proc, grace=2.0)
                self._workers[rank] = self._start_worker(rank)
        try:
            self._hub.wait_connected(max(self._timeout, 60.0), self._check_spawned)
        except BackendError:
            self._check_spawned(self._hub.missing_ranks())  # a dead worker's error wins
            return False
        return True

    # -------------------------------------------------------------- lifecycle
    def close(self) -> None:
        if getattr(self, "_closed", True):
            return
        self._closed = True
        hub = getattr(self, "_hub", None)
        if hub is not None:
            hub.tell_workers("control", _NO_HEAD, _control({"kind": "shutdown"}))
        for proc in self._workers.values():
            _reap(proc, grace=5.0)
        if hub is not None:
            hub.close()

    def __del__(self) -> None:  # pragma: no cover - gc-timing dependent
        try:
            self.close()
        except Exception:
            pass


# --------------------------------------------------- external worker entry
def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.comm.tcp --connect HOST:PORT [--rank R]``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.comm.tcp",
        description="join a repro tcp rendezvous as one worker rank",
    )
    add = parser.add_argument
    add("--connect", required=True, metavar="HOST:PORT", help="driver rendezvous address")
    add("--rank", type=int, default=None, help="rank to claim (default: the lowest free one)")
    add("--timeout", type=float, default=120.0, help="collective/rendezvous timeout (s)")
    add("--chunk-bytes", type=int, default=1 << 20, help="max payload chunk per send")
    args = parser.parse_args(argv)
    host, _, port = args.connect.rpartition(":")
    if not host or not port.isdigit():
        parser.error("--connect must be HOST:PORT")
    try:
        _tcp_worker_main(args.rank, (host, int(port)), args.timeout, args.chunk_bytes)
    except BackendError as exc:
        print(f"error: {exc}")
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
