"""The tcp transport: socket collectives so ranks can span hosts.

``TCPComm`` is the one :class:`~repro.comm.base.Communicator` whose ranks
are not pinned to one machine.  The topology is a **hub**: the driver
process (rank 0) owns a listening *rendezvous* socket and every worker rank
holds one connection to it; rank 0 itself joins the hub in-process (no
loopback socket).  A collective is a **round**: each rank posts one tagged
contribution, and whichever thread delivers the round's *last* one — a
worker's reader thread or rank 0's own — completes it: checks the ranks
agree, reduces strictly in rank order into one accumulator (deterministic,
bit-identical to the other transports), sends that one reply buffer to every
worker and hands it to rank 0.

* **Raw-buffer frames** — a ``>IQ`` prefix (header bytes, payload bytes), a
  small pickled header, then the payload as ``>I``-prefixed chunks of at
  most ``chunk_bytes``.  Array frames list ``(dtype, shape)`` per array in
  the header (``arrays``) and carry the arrays' own memory: one gather
  ``sendmsg`` straight from the array, ``recv_into`` straight into the
  destination.  Only headers and ``task``/``result`` payloads are pickled.
  The framing is self-describing, so peers may use different chunk sizes.
* **Crash/timeout -> BackendError, never a hang** — a lost connection is
  seen by the hub's per-worker reader thread the moment the socket closes,
  and every wait (a worker's socket read, rank 0's in-process wait, every
  hub-side send) is bounded by ``timeout``.  Either way the hub broadcasts
  an ``abort`` frame and every surviving rank raises
  :class:`~repro.exceptions.BackendError` from its next or pending collective.
* **Nonblocking collectives** — ``iallreduce`` is genuinely split-phase:
  the contribution is captured at call time (a worker's goes on the wire,
  rank 0's is snapshotted) and ``wait()`` collects the reply, with the same
  at-most-one-outstanding contract as the process transport.
* **Fault tolerance** — the rendezvous listener stays open for the
  communicator's whole life.  :meth:`TCPComm.recover` respawns locally
  spawned workers (or waits for an external worker to reconnect and claim
  its old rank), so a driver can roll back to its last model snapshot and
  re-launch the SPMD program after a crash.

Workers are locally spawned by default (``spawn_workers=True``), which makes
``tcp://127.0.0.1`` a drop-in, conformance-identical alternative to the
process transport.  For true multi-host runs, construct the driver with
``spawn_workers=False`` and start each remote worker with::

    python -m repro.comm.tcp --connect HOST:PORT [--rank R]

Workers that omit ``--rank`` are assigned the lowest free rank by the hub.
"""

from __future__ import annotations

import itertools
import math
import pickle
import select
import socket
import struct
import threading
import time
import traceback
from collections import deque
from multiprocessing import get_context
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import faults
from repro.comm.base import REDUCE_OPS, CommRequest, Communicator, split_ranks
from repro.exceptions import BackendError

__all__ = ["TCPComm"]

_PICKLE_PROTOCOL = 4
_PREFIX = struct.Struct(">IQ")  # header bytes, payload bytes
_CHUNK = struct.Struct(">I")  # bytes in the chunk that follows
_IOV_BATCH = 512  # buffers per sendmsg call (IOV_MAX is 1024 on Linux)
_COMBINE = {"sum": np.add, "mean": np.add, "max": np.maximum, "min": np.minimum}


# ------------------------------------------------------------------ framing
def _dumps(obj: Any) -> bytes:
    return pickle.dumps(obj, protocol=_PICKLE_PROTOCOL)


def _describe(arrays: Sequence[np.ndarray]) -> List[Tuple[np.dtype, Tuple[int, ...]]]:
    """The ``arrays`` header field: what a raw payload holds."""
    return [(a.dtype, a.shape) for a in arrays]


def _raw(array: np.ndarray) -> memoryview:
    """A C-contiguous array's own memory as a flat byte view (no copy)."""
    return memoryview(array.reshape(-1).view(np.uint8))


def _recv_into(sock: socket.socket, view: memoryview) -> None:
    """Fill ``view`` from the socket or raise ``ConnectionError`` on EOF."""
    while len(view):
        got = sock.recv_into(view)
        if not got:
            raise ConnectionError("peer closed the connection")
        view = view[got:]


def _recv_exact(sock: socket.socket, n: int) -> bytearray:
    buf = bytearray(n)
    _recv_into(sock, memoryview(buf))
    return buf


def _send_all(sock: socket.socket, pieces: Iterator[Union[bytes, memoryview]]) -> None:
    """Gather-send every piece with ``sendmsg``, finishing partial sends."""
    while True:
        batch = list(itertools.islice(pieces, _IOV_BATCH))
        if not batch:
            return
        while batch:
            sent = sock.sendmsg(batch)
            done = 0
            while done < len(batch) and sent >= len(batch[done]):
                sent -= len(batch[done])
                done += 1
            del batch[:done]
            if sent:
                batch[0] = memoryview(batch[0])[sent:]


def _send_frame(
    sock: socket.socket,
    header: Dict[str, Any],
    payload: Union[bytes, Sequence[np.ndarray]],
    chunk_bytes: int,
) -> None:
    """One frame: prefix + pickled header, then the payload in chunks.

    ``payload`` is either a list of C-contiguous arrays — described in the
    header and sent from their own memory, never copied or pickled — or an
    opaque ``bytes`` blob (pickled task/result, or empty).  Each array (or
    the blob) travels as length-prefixed chunks of at most ``chunk_bytes``,
    so the receiver can validate progress chunk by chunk.

    Every frame passes through the deterministic fault-injection hooks
    ``tcp.delay`` (sleep before sending) and ``tcp.drop`` (swallow the frame
    entirely — the peer observes a stall/timeout, exactly like a lossy
    link); see :mod:`repro.faults`.
    """
    if isinstance(payload, bytes):
        buffers = [payload]
    else:
        header = dict(header, arrays=_describe(payload))
        buffers = [_raw(a) for a in payload]
    total = sum(len(b) for b in buffers)
    rule = faults.fault_point("tcp.delay", bytes=total)
    if rule is not None:
        time.sleep(rule.param_float("seconds", 0.05))
    if faults.fault_point("tcp.drop", bytes=total) is not None:
        return
    head = _dumps(header)

    def pieces() -> Iterator[Union[bytes, memoryview]]:
        yield _PREFIX.pack(len(head), total) + head
        for buf in buffers:
            for lo in range(0, len(buf), chunk_bytes):
                piece = buf[lo : lo + chunk_bytes]
                yield _CHUNK.pack(len(piece))
                yield piece

    _send_all(sock, pieces())


def _recv_frame(sock: socket.socket) -> Tuple[Dict[str, Any], Union[bytearray, List[np.ndarray]]]:
    """Inverse of :func:`_send_frame`; chunk prefixes are re-validated.

    Arrays land directly in fresh (hence caller-owned) destinations.
    """
    head_len, total = _PREFIX.unpack(_recv_exact(sock, _PREFIX.size))
    header = pickle.loads(_recv_exact(sock, head_len))
    specs = header.get("arrays")
    if specs is None:
        payload = bytearray(total)
        targets = [memoryview(payload)]
    else:
        if sum(np.dtype(d).itemsize * math.prod(s) for d, s in specs) != total:
            raise ConnectionError("frame header does not describe its payload")
        payload = [np.empty(s, dtype=d) for d, s in specs]
        targets = [_raw(a) for a in payload]
    for view in targets:
        while len(view):
            (n,) = _CHUNK.unpack(_recv_exact(sock, _CHUNK.size))
            if n == 0 or n > len(view):
                raise ConnectionError(f"corrupt chunk framing ({n} bytes)")
            _recv_into(sock, view[:n])
            view = view[n:]
    return header, payload


def _close_socket(sock: socket.socket) -> None:
    try:
        sock.shutdown(socket.SHUT_RDWR)  # wakes a thread blocked on the socket
    except OSError:
        pass
    sock.close()


# ---------------------------------------------------------------- rank view
class _TCPRankView(Communicator):
    """One rank's collectives; subclasses supply the link to the hub.

    The link is three methods: ``_submit(header, arrays)`` delivers this
    rank's contribution to a round, ``_await(seq)`` blocks (bounded by
    ``timeout``) for that round's reply arrays, and ``_ready(seq)`` probes
    for it without blocking.
    """

    transport = "tcp"
    multihost = True
    fault_tolerant = True
    nonblocking = True

    #: Worker views always run inside a program; the driver (TCPComm)
    #: toggles this in :meth:`TCPComm.run` (same guard as the process
    #: transport: a driver-side SPMD collective outside run() fails fast).
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

    def _post(self, op: str, array: Optional[np.ndarray] = None, **extra: Any) -> int:
        """Contribute to this rank's next round; returns its sequence."""
        if not self._in_program and self._size > 1:
            raise BackendError(
                "SPMD collectives on a size>1 communicator must be called from "
                "inside run(); for driver-side combines use reduce_parts()/"
                "gather_parts() (or pass a list of per-rank contributions)"
            )
        if array is not None and array.dtype.hasobject:
            raise BackendError("tcp collectives carry raw array memory, not object arrays")
        seq = self._seq
        self._seq += 1
        header = {"kind": "coll", "op": op, "task": self._task, "seq": seq, "rank": self._rank}
        self._submit({**header, **extra}, [] if array is None else [array])
        return seq

    # ------------------------------------------------------ SPMD collectives
    def _allreduce_array(self, array: np.ndarray, op: str) -> np.ndarray:
        if op not in REDUCE_OPS:
            raise BackendError(f"unknown reduction '{op}'; available: {sorted(REDUCE_OPS)}")
        out = self._await(self._post("allreduce", array, reduce=op))[0]
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

    def _allgather_array(self, array: np.ndarray) -> List[np.ndarray]:
        parts = self._await(self._post("allgather", array))
        self.collective_calls["allgather"] += 1
        self.bytes_communicated += sum(p.nbytes for p in parts)
        return parts

    def _from_root(self, op: str, array: Optional[np.ndarray], root: int) -> np.ndarray:
        """bcast/scatter: only the root contributes, every rank gets one array."""
        if not 0 <= root < self._size:
            raise BackendError(f"root {root} out of range for size {self._size}")
        contribution = np.asarray(array) if self._rank == root else None
        out = self._await(self._post(op, contribution, root=int(root)))[0]
        self.collective_calls[op] += 1
        self.bytes_communicated += out.nbytes
        return out

    def bcast(self, array: Optional[np.ndarray], root: int = 0) -> np.ndarray:
        if self._rank == root and array is None:
            raise BackendError("bcast root must provide an array")
        return self._from_root("bcast", array, root)

    def scatter_rows(self, x: Optional[np.ndarray], root: int = 0) -> np.ndarray:
        if self._rank == root and np.ndim(x) != 2:
            raise BackendError("scatter_rows root must provide a 2-D matrix")
        return self._from_root("scatter", x, root)

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
        self._result = self._view._await(self._seq)[0]
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
        self._replies: Dict[int, List[np.ndarray]] = {}
        self._aborted: Optional[str] = None
        sock.settimeout(self._timeout)

    def _begin_task(self, task: int) -> None:
        _TCPRankView._begin_task(self, task)
        self._replies.clear()
        self._aborted = None

    def _submit(self, header: Dict[str, Any], arrays: List[np.ndarray]) -> None:
        if self._nb_pending is not None:
            # The hub thread sending us that reply may be this rank's reader:
            # were we to block in a send while it blocks in one, neither side
            # would read.  So take the reply off the wire before sending.
            self._fill(self._nb_pending._seq)
        arrays = [np.asarray(a, order="C") for a in arrays]
        try:
            _send_frame(self._sock, header, arrays, self._chunk)
        except OSError as exc:
            raise BackendError(f"tcp hub connection lost while sending: {exc}") from exc

    def _read_frame(self) -> None:
        """Read and route one frame from the hub (reply/abort; stale dropped)."""
        try:
            header, payload = _recv_frame(self._sock)
        except socket.timeout as exc:
            raise BackendError(
                f"tcp collective timed out after {self._timeout}s "
                "(a rank crashed or stalled)"
            ) from exc
        except (OSError, EOFError) as exc:
            raise BackendError(f"tcp hub connection lost: {exc}") from exc
        kind = header.get("kind")
        if header.get("task") != self._task:
            return  # stale frame from a finished or aborted task
        if kind == "abort":
            self._aborted = str(header.get("reason", "aborted"))
        elif kind == "reply":
            self._replies[int(header["seq"])] = payload

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

    def _await(self, seq: int) -> List[np.ndarray]:
        self._fill(seq)
        return self._replies.pop(seq)

    def _ready(self, seq: int) -> bool:
        return self._fill(seq, block=False)

    def _send_result(self, task: int, ok: bool, result: Any) -> None:
        header = {"kind": "result", "task": int(task), "rank": self._rank, "ok": bool(ok)}
        _send_frame(self._sock, header, _dumps(result), self._chunk)


# --------------------------------------------------------------- handshake
def _handshake(
    rank: Optional[int], address: Tuple[str, int], timeout: float, chunk_bytes: int
) -> Tuple[socket.socket, int, int, int]:
    """Connect to the hub; returns ``(sock, rank, size, chunk_bytes)``.

    ``rank=None`` asks the hub to assign the lowest free worker rank (the
    multi-host rendezvous mode).
    """
    host, port = address
    try:
        sock = socket.create_connection((host, int(port)), timeout=max(float(timeout), 10.0))
    except OSError as exc:
        raise BackendError(f"could not reach the tcp rendezvous at {host}:{port}: {exc}") from exc
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(max(float(timeout), 10.0))
        _send_frame(sock, {"kind": "hello", "rank": rank}, b"", chunk_bytes)
        header, _ = _recv_frame(sock)
    except OSError as exc:
        sock.close()
        raise BackendError(f"tcp rendezvous handshake failed: {exc}") from exc
    if header.get("kind") != "welcome":
        reason = header.get("reason", header)
        sock.close()
        raise BackendError(f"tcp rendezvous rejected the connection: {reason}")
    chunk_bytes = int(header.get("chunk_bytes", chunk_bytes))
    return sock, int(header["rank"]), int(header["size"]), chunk_bytes


# --------------------------------------------------------------------- hub
class _Hub:
    """Driver-side rendezvous: listener, per-worker readers, round engine.

    Rank 0 is the driver itself and has no connection: it :meth:`post`\\ s
    its contributions and :meth:`await_local`\\ s its replies in-process.
    """

    def __init__(self, size: int, host: str, port: int, timeout: float, chunk_bytes: int) -> None:
        self._size = int(size)
        self._timeout = float(timeout)
        self._chunk = int(chunk_bytes)
        self._listener = socket.create_server((host, int(port)), backlog=max(8, size))
        self._listener.settimeout(0.5)
        bound_host, bound_port = self._listener.getsockname()[:2]
        self.address: Tuple[str, int] = (host if host else bound_host, int(bound_port))
        self._cond = threading.Condition()
        self._conns: List[Optional[socket.socket]] = [None] * self._size  # [0]: never set
        self._send_locks = [threading.Lock() for _ in range(self._size)]
        self._queues: List[deque] = [deque() for _ in range(self._size)]
        self._local: Dict[int, List[np.ndarray]] = {}  # rank 0's replies by seq
        self._results: Dict[Tuple[int, int], Tuple[bool, Any]] = {}  # by (task, rank)
        self._dead: set = set()
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
            header, _ = _recv_frame(sock)
            if header.get("kind") != "hello":
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
                    _send_frame(sock, {"kind": "reject", "reason": reason}, b"", self._chunk)
                    raise ConnectionError(reason)
                welcome = {"kind": "welcome", "rank": rank, "size": self._size}
                _send_frame(sock, dict(welcome, chunk_bytes=self._chunk), b"", self._chunk)
                # The socket timeout bounds every hub-side send and every read
                # *within* a frame; the reader's idle wait between frames is
                # not bounded (a quiet worker is not an error).
                sock.settimeout(self._timeout)
                self._conns[rank] = sock
                self._dead.discard(rank)
                threading.Thread(
                    target=self._reader, args=(rank, sock), name=f"tcp-hub-read{rank}", daemon=True
                ).start()
                self._cond.notify_all()
        except (OSError, EOFError, pickle.UnpicklingError):
            sock.close()

    def _reader(self, rank: int, sock: socket.socket) -> None:
        """Route one worker's frames: collectives into rounds, results up."""
        try:
            while True:
                select.select([sock], [], [])  # idle between frames is not a timeout
                header, payload = _recv_frame(sock)
                if header.get("kind") == "coll":
                    self.post(rank, header, payload, sock)
                elif header.get("kind") == "result":
                    result = (bool(header["ok"]), pickle.loads(payload))
                    with self._cond:
                        self._results[(int(header["task"]), rank)] = result
                        self._cond.notify_all()
        except (OSError, EOFError, ValueError, pickle.UnpicklingError):
            pass
        finally:
            self._drop(rank, sock, f"rank {rank} lost its connection")

    def _drop(self, rank: int, sock: socket.socket, reason: str) -> None:
        """Close ``sock``; if it was ``rank``'s live connection, fail the task."""
        with self._cond:
            current = self._conns[rank] is sock
            if current:
                self._conns[rank] = None
                self._dead.add(rank)
                self._cond.notify_all()
        _close_socket(sock)
        if current:
            self.fail(reason)

    def send(self, rank: int, header: Dict[str, Any], payload: Any) -> None:
        """One frame to worker ``rank``; a failed or timed-out send drops it."""
        conn = self._conns[rank]
        if conn is None:
            raise BackendError(f"rank {rank} is not connected")
        try:
            with self._send_locks[rank]:  # frames from concurrent rounds must not interleave
                _send_frame(conn, header, payload, self._chunk)
        except OSError as exc:
            # A partial frame poisons the stream, and a worker that stopped
            # reading (full socket buffers) would block every later send too.
            reason = f"sending to rank {rank} failed: {exc}"
            self._drop(rank, conn, reason)
            raise BackendError(reason) from exc

    # ---------------------------------------------------------- round engine
    def post(
        self,
        rank: int,
        header: Dict[str, Any],
        arrays: List[np.ndarray],
        conn: Optional[socket.socket] = None,
    ) -> None:
        """Queue one contribution; a round's last arrival completes it here."""
        with self._cond:
            stale = header.get("task") != self._task or self._conns[rank] is not conn
            if stale or self._failed is not None:
                return  # finished task, superseded connection, or poisoned task
            self._queues[rank].append((header, arrays))
            if not all(self._queues):
                return
            frames = [queue.popleft() for queue in self._queues]
        try:
            self._complete(frames)
        except Exception as exc:  # noqa: BLE001 - surfaced as an abort
            self.fail(f"collective round failed: {exc}")

    def _complete(self, frames: List[Tuple[Dict[str, Any], List[np.ndarray]]]) -> None:
        """Check agreement, compute the round's result, fan the replies out."""
        headers = [h for h, _ in frames]
        issued = {(str(h.get("op")), str(h.get("seq"))) for h in headers}
        if len(issued) != 1:
            raise BackendError(f"ranks issued mismatched collectives (op, seq): {sorted(issued)}")
        op, seq, task = headers[0]["op"], int(headers[0]["seq"]), int(headers[0]["task"])
        size = self._size
        parts = [arrays[0] if arrays else None for _, arrays in frames]
        if op == "allreduce":
            posted = [(h.get("reduce"), h["arrays"]) for h in headers]
            if any(p != posted[0] for p in posted):
                raise BackendError(f"ranks posted mismatched allreduce contributions: {posted}")
            # Rank 0's contribution is its private float64 snapshot, taken
            # at post time: it doubles as the accumulator and the reply.
            out = parts[0]
            reduce = headers[0]["reduce"]
            for part in parts[1:]:
                _COMBINE[reduce](out, part, out=out)
            if reduce == "mean":
                out /= float(size)
            replies = [[out]] * size
        elif op == "allgather":
            replies = [parts] * size
        elif op == "bcast":
            root = parts[int(headers[0]["root"])]
            if root is None:
                raise BackendError("bcast root provided no array")
            replies = [[root]] * size
        elif op == "barrier":
            replies = [[]] * size
        elif op == "scatter":
            x = parts[int(headers[0]["root"])]
            if x is None or x.ndim != 2:
                raise BackendError("scatter_rows root must provide a 2-D matrix")
            replies = [[x[lo:hi]] for lo, hi in split_ranks(x.shape[0], size)]
            replies[0] = [replies[0][0].copy()]  # rank 0's shard must be caller-owned
        else:
            raise BackendError(f"unknown collective op {op!r}")
        reply = {"kind": "reply", "task": task, "seq": seq, "op": op}
        for rank in range(1, size):
            self.send(rank, reply, replies[rank])
        # Rank 0 last: it owns (and may mutate) the buffer the workers were sent.
        with self._cond:
            if task == self._task and self._failed is None:
                self._local[seq] = replies[0]
                self._cond.notify_all()

    def await_local(self, seq: int) -> List[np.ndarray]:
        """Rank 0's bounded wait for the reply to its round ``seq``."""

        def ready() -> bool:
            if seq not in self._local and self._failed is not None:
                raise BackendError(f"tcp collective aborted: {self._failed}")
            return seq in self._local

        with self._cond:
            if not self._cond.wait_for(ready, self._timeout):
                raise BackendError(
                    f"tcp collective timed out after {self._timeout}s "
                    "(a rank crashed or stalled)"
                )
            return self._local.pop(seq)

    def local_ready(self, seq: int) -> bool:
        with self._cond:
            return seq in self._local or self._failed is not None

    def fail(self, reason: str) -> None:
        """Poison the current task and tell every live worker."""
        with self._cond:
            if self._failed is not None or self._closed:
                return
            self._failed = reason
            for queue in self._queues:
                queue.clear()
            abort = {"kind": "abort", "task": self._task, "reason": reason}
            self._cond.notify_all()
        self.tell_workers(abort)

    def tell_workers(self, header: Dict[str, Any]) -> None:
        """Best-effort control frame to every connected worker."""
        for rank in range(1, self._size):
            try:
                self.send(rank, header, b"")
            except BackendError:  # not connected, or just dropped
                pass

    # ------------------------------------------------------------- task API
    def begin_task(self, task: int) -> None:
        with self._cond:
            self._task = int(task)
            self._failed = None
            self._local.clear()
            self._results.clear()
            for queue in self._queues:
                queue.clear()

    def collect(self, task: int, deadline: float) -> Dict[int, Tuple[bool, Any]]:
        """Every worker's ``(ok, result)`` for ``task``, by rank."""
        workers = range(1, self._size)

        def ready() -> bool:
            lost = sorted(r for r in self._dead if (task, r) not in self._results)
            if lost:
                raise BackendError(
                    f"worker rank(s) lost their connection without reporting a result: {lost}"
                )
            return all((task, r) in self._results for r in workers)

        with self._cond:
            if not self._cond.wait_for(ready, deadline):
                raise BackendError(f"timed out after {deadline}s waiting for worker results")
            return {r: self._results.pop((task, r)) for r in workers}

    # ------------------------------------------------------------ membership
    def missing_ranks(self) -> List[int]:
        with self._cond:
            return [r for r in range(1, self._size) if self._conns[r] is None]

    def wait_connected(self, deadline: float) -> None:

        def ready() -> bool:
            if self._closed:
                raise BackendError("tcp hub closed while waiting for ranks")
            return not self.missing_ranks()

        with self._cond:
            if not self._cond.wait_for(ready, deadline):
                raise BackendError(
                    f"timed out after {deadline}s waiting for rank(s) {self.missing_ranks()} "
                    f"to join the tcp rendezvous at {self.address[0]}:{self.address[1]}"
                )

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
            _close_socket(conn)


# ------------------------------------------------------------------ workers
def _worker_loop(view: _WorkerView) -> None:
    """Task loop of one tcp worker (spawned locally or started remotely)."""
    sock = view._sock
    while True:
        try:
            select.select([sock], [], [])  # idle between tasks is not a timeout
            header, payload = _recv_frame(sock)
        except (OSError, EOFError):
            return
        kind = header.get("kind")
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
        connect back over loopback — a drop-in alternative to the process
        transport.  ``False``: workers are external; the constructor blocks
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
            self._hub.wait_connected(deadline=max(self._timeout, 60.0))
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

    # ------------------------------------------------- in-process hub link
    def _submit(self, header: Dict[str, Any], arrays: List[np.ndarray]) -> None:
        header["arrays"] = _describe(arrays)
        if arrays and header["op"] == "scatter":
            # Blocking and read-only: the hub slices the caller's matrix.
            arrays = [np.asarray(arrays[0], order="C")]
        elif arrays:
            # One snapshot, so the caller's buffer is free on return (the
            # iallreduce contract) and the round's result is caller-owned;
            # for allreduce it is also the hub's float64 accumulator.
            dtype = np.float64 if header["op"] == "allreduce" else None
            arrays = [np.array(arrays[0], dtype=dtype, order="C")]
        self._hub.post(0, header, arrays)

    def _await(self, seq: int) -> List[np.ndarray]:
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
            task = _dumps((fn, tuple(rank_args[rank])))
            self._hub.send(rank, {"kind": "task", "task": task_id}, task)

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
            remote = self._hub.collect(task_id, deadline=self._timeout + 5.0)
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
        Returns ``True`` once every rank is connected again.
        """
        if self._closed:
            return False
        for rank in self._hub.missing_ranks():
            proc = self._workers.get(rank)
            if proc is not None:
                _reap(proc, grace=2.0)
                self._workers[rank] = self._start_worker(rank)
        try:
            self._hub.wait_connected(deadline=max(self._timeout, 60.0))
        except BackendError:
            return False
        return True

    # -------------------------------------------------------------- lifecycle
    def close(self) -> None:
        if getattr(self, "_closed", True):
            return
        self._closed = True
        hub = getattr(self, "_hub", None)
        if hub is not None:
            hub.tell_workers({"kind": "shutdown"})
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
