"""Request-facing online serving: stdlib HTTP/JSON over the micro-batcher.

This module turns the offline bulk path (:class:`StreamingPredictor`) into
a **request-facing system**: an :mod:`asyncio` HTTP/1.1 endpoint whose
concurrent ``POST /predict`` requests are coalesced by
:class:`~repro.serving.batcher.MicroBatcher` into micro-batches and
dispatched through a cached predictor's preallocated engine workspaces —
per-request cost amortises into the same fused/sparse kernels the bulk
path uses.  Everything is standard library (``asyncio`` streams + JSON);
there is no web-framework dependency to install.

Endpoints
---------
``POST /predict``
    Body ``{"rows": [[...], ...], "proba": false}``.  Replies
    ``{"predictions": [...], "model_version": N, "batch_rows": K}``
    (plus ``"probabilities"`` when ``proba`` is true).  Backpressure is
    explicit: a full queue replies ``503`` with ``Retry-After`` (the backlog
    in batches times the measured mean dispatch time); a request
    older than the per-request deadline replies ``504``.  Optional
    ``"backend"`` and ``"sparse"`` keys override the execution choice for
    that request alone (validated against the backend registry / the
    ``auto``/``on``/``off`` modes — unknown names reply ``400``); override
    requests run on a cached per-override predictor and skip the
    micro-batcher, so they never perturb default-path coalescing.
``GET /healthz``
    ``200 {"status": "ok", ...}`` while serving, ``503`` while draining.
``GET /metrics``
    Counters, queue gauge and latency percentiles as JSON.
``POST /reload``
    Zero-downtime model hot-swap: loads ``{"model": PATH}`` (default: the
    path the server started with) and atomically swaps the predictor
    *between* micro-batches — an in-flight batch finishes on the version it
    started with, and every response reports the version that served it.

The hot-swap rides the serving refresh machinery from the bulk path: a
swap installs a freshly built :class:`StreamingPredictor` (new engines and
workspaces), so no cached weights*mask product or sparse pack of the old
model can leak into the new version, and the old version's in-flight batch
keeps its own workspaces until it completes.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time
from collections import deque
from itertools import chain
from typing import Deque, Dict, Optional, Tuple

import numpy as np

from repro.exceptions import DataError, ReproError
from repro.serving.batcher import (
    BatchResult,
    DeadlineExceededError,
    DispatchError,
    MicroBatcher,
    QueueFullError,
    ServingClosedError,
)
from repro.serving.jsonrows import decode_rows_first
from repro.serving.predictor import StreamingPredictor

__all__ = ["ModelRunner", "PredictionServer", "ServerThread", "ServingMetrics"]

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Upper bound on an accepted request body; a request-facing endpoint is for
#: micro-batches, not bulk uploads (use ``repro predict`` for those).
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Bodies of at least this many bytes try the rows-first decoder
#: (:mod:`repro.serving.jsonrows`) before ``json.loads``.  Measured in the server
#: on the 2-vCPU reference box, two closed-loop connections: 1-2 rows of 280
#: literals (0.9-3.9 KB) served even or slower with it, 4 rows (3.4-7.9 KB) and
#: up faster (docs/serving.md, "Request body").
FAST_DECODE_MIN_BYTES = 4096


class ModelRunner:
    """The servable model: a network plus its cached streaming predictor.

    Owns the one mutable piece of serving state — *which* model answers —
    behind a lock, so micro-batch dispatches and hot-swaps interleave
    safely:

    * :meth:`run_batch` snapshots ``(predictor, version)`` and computes the
      whole batch under the lock, so a swap can never land mid-batch;
    * :meth:`swap` builds the replacement predictor *outside* the lock
      (workspace allocation is the slow part) and only the pointer flip is
      serialised — the actual downtime is nanoseconds.

    Parameters
    ----------
    network:
        A fitted :class:`~repro.core.network.Network` (built head).
    batch_size:
        Engine workspace rows — the micro-batcher's ``batch_size`` should
        not exceed it (a larger micro-batch still works; the predictor
        grows its workspaces once).
    backend:
        Optional backend name/instance forced onto the whole stack
        (default: each layer's own resolved backend).
    comm:
        Optional :class:`repro.comm.Communicator` or transport spec string
        (``"process:4"``, ``"tcp://host:port?ranks=8"``): serving batches
        are row-sharded across the ranks (see
        :class:`StreamingPredictor`).  A spec string is resolved once here
        and released by :meth:`close`; an instance stays caller-owned.

    Per-request overrides
    ---------------------
    ``POST /predict`` may name a ``"backend"`` and/or ``"sparse"`` mode for
    that request alone.  The runner keeps one cached predictor per distinct
    override tuple (workspaces are the expensive part), invalidated on
    every :meth:`swap`.  A sparse override rebuilds its network from the
    serialized blob first, because ``bind_sparse(force=True)`` mutates the
    layer spec in place and must not leak into the default path.

    Raises
    ------
    NotFittedError
        If the network's head (or any hidden layer) is not built.
    """

    def __init__(self, network, batch_size: int = 64, backend=None, comm=None) -> None:
        from repro.comm import resolve_comm

        self._lock = threading.Lock()
        self._backend = backend
        self._batch_size = int(batch_size)
        self._comm = resolve_comm(comm) if isinstance(comm, str) else comm
        self._owns_comm = isinstance(comm, str) and self._comm is not None
        self.version = 0
        self.network = None
        self.n_features = 0
        self._predictor: Optional[StreamingPredictor] = None
        self._override_predictors: Dict[
            Tuple[Optional[str], Optional[str]], StreamingPredictor
        ] = {}
        self.swap(network)

    def _feature_width(self, network) -> int:
        if network.hidden_layers:
            spec = network.hidden_layers[0].input_spec
            if spec is not None:
                return int(spec.n_units)
        spec = getattr(network, "input_spec", None)
        if spec is not None:
            return int(spec.n_units)
        raise DataError("cannot determine the model's input width (no built input spec)")

    def swap(self, network) -> int:
        """Atomically make ``network`` the serving model; returns the new version.

        The replacement predictor (engines + workspaces) is built before
        the lock is taken; in-flight batches finish on the old predictor.
        On *any* failure building the replacement the old model keeps
        serving untouched.
        """
        predictor = StreamingPredictor(
            network, batch_size=self._batch_size, backend=self._backend, comm=self._comm
        )
        width = self._feature_width(network)
        with self._lock:
            self.network = network
            self._predictor = predictor
            self.n_features = width
            self._override_predictors.clear()
            self.version += 1
            return self.version

    def _override_predictor(
        self, backend: Optional[str], sparse: Optional[str]
    ) -> StreamingPredictor:
        """The cached predictor for one ``(backend, sparse)`` override tuple.

        Called under :attr:`_lock` (the build blocks a concurrent swap, like
        any other dispatch).  Backend-only overrides share the serving
        network — the backend is a per-predictor execution choice; sparse
        overrides clone it through the serialization blob first because
        ``bind_sparse(force=True)`` rewrites the layer spec in place.
        """
        key = (backend, sparse)
        predictor = self._override_predictors.get(key)
        if predictor is None:
            network = self.network
            if sparse is not None:
                from repro.core import network_from_bytes, network_to_bytes

                network = network_from_bytes(network_to_bytes(self.network))
                for layer in network.hidden_layers:
                    if hasattr(layer, "bind_sparse"):
                        layer.bind_sparse(sparse, force=True)
            predictor = StreamingPredictor(
                network,
                batch_size=self._batch_size,
                backend=backend if backend is not None else self._backend,
                comm=self._comm,
            )
            self._override_predictors[key] = predictor
        return predictor

    def run_batch(
        self,
        matrix: np.ndarray,
        backend: Optional[str] = None,
        sparse: Optional[str] = None,
    ) -> BatchResult:
        """One micro-batch through the cached predictor (dispatch callable).

        Runs on the batcher's dispatch thread.  Probabilities are computed
        once (one fused forward + head pass through the preallocated
        workspaces) and the hard predictions derived by row-argmax, so a
        mixed batch of ``proba`` and plain requests costs one dispatch.
        ``backend``/``sparse`` select a per-request override predictor
        (validated names only — see :meth:`_override_predictor`).
        """
        with self._lock:
            if backend is None and sparse is None:
                predictor = self._predictor
            else:
                predictor = self._override_predictor(backend, sparse)
            proba = predictor.predict_proba_stream(matrix)
            version = self.version
        return BatchResult(
            predictions=np.argmax(proba, axis=1),
            probabilities=proba,
            model_version=version,
        )

    def close(self) -> None:
        """Release the communicator when this runner resolved it from a spec."""
        if self._owns_comm and self._comm is not None:
            self._comm.close()
            self._comm = None
            self._owns_comm = False


class ServingMetrics:
    """Latency/outcome accounting for the HTTP front end (thread-safe)."""

    def __init__(self, reservoir: int = 4096) -> None:
        self._lock = threading.Lock()
        self._latencies: Deque[float] = deque(maxlen=reservoir)
        self.requests: Dict[str, int] = {}
        self.statuses: Dict[int, int] = {}
        self.started_at = time.time()

    def observe(self, endpoint: str, status: int, latency: Optional[float] = None) -> None:
        with self._lock:
            self.requests[endpoint] = self.requests.get(endpoint, 0) + 1
            self.statuses[status] = self.statuses.get(status, 0) + 1
            if latency is not None:
                self._latencies.append(latency)

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            latencies = np.asarray(self._latencies, dtype=np.float64)
            out: Dict[str, object] = {
                "requests_by_endpoint": dict(self.requests),
                "responses_by_status": {str(k): v for k, v in sorted(self.statuses.items())},
                "uptime_seconds": time.time() - self.started_at,
            }
        if latencies.size:
            out["predict_latency_ms"] = {
                "count": int(latencies.size),
                "p50": float(np.percentile(latencies, 50) * 1e3),
                "p90": float(np.percentile(latencies, 90) * 1e3),
                "p99": float(np.percentile(latencies, 99) * 1e3),
                "max": float(latencies.max() * 1e3),
            }
        return out


class _Request:
    __slots__ = ("method", "path", "headers", "body", "keep_alive")

    def __init__(self, method: str, path: str, headers: Dict[str, str], body: bytes) -> None:
        self.method = method
        self.path = path
        self.headers = headers
        self.body = body
        connection = headers.get("connection", "").lower()
        self.keep_alive = connection != "close"


class _BadRequest(ReproError, ValueError):
    """Malformed request (parse/validation failure) — mapped to 400/413."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


class PredictionServer:
    """The asyncio HTTP/JSON serving endpoint (``repro serve``).

    Parameters
    ----------
    runner:
        The :class:`ModelRunner` that answers batches (and hot-swaps).
    host / port:
        Bind address; ``port=0`` binds an ephemeral port (read it back
        from :attr:`port` after :meth:`start` — tests and the latency
        benchmark rely on this).
    batch_size:
        Rows at which a micro-batch flushes at once (and its size bound).
    batch_deadline:
        Longest, in seconds, the oldest queued request may be held back for
        coalescing while new requests keep arriving — a cap, not a timer:
        with the dispatch worker free and nothing arriving, a batch leaves
        immediately (see :class:`~repro.serving.batcher.MicroBatcher`).
    max_queue_rows:
        Admission-control bound on queued rows (``503`` beyond it).
    request_timeout:
        Per-request deadline in seconds (``504`` on expiry); ``None``
        disables it.
    model_path:
        Default path for body-less ``POST /reload``.

    Notes
    -----
    ``start``/``stop`` are coroutines and must run on one event loop; use
    :class:`ServerThread` to drive a server from synchronous code.
    """

    def __init__(
        self,
        runner: ModelRunner,
        host: str = "127.0.0.1",
        port: int = 0,
        batch_size: int = 64,
        batch_deadline: float = 0.005,
        max_queue_rows: int = 4096,
        request_timeout: Optional[float] = None,
        model_path: Optional[str] = None,
    ) -> None:
        self.runner = runner
        self.host = host
        self.port = int(port)
        self.model_path = model_path
        self.metrics = ServingMetrics()
        self.batcher = MicroBatcher(
            runner.run_batch,
            batch_size=batch_size,
            deadline=batch_deadline,
            max_queue_rows=max_queue_rows,
            request_timeout=request_timeout,
        )
        self.reloads = 0
        self._draining = False
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: set = set()

    @classmethod
    def from_settings(cls, runner: ModelRunner, settings: Dict) -> "PredictionServer":
        """Build a server from a plain settings mapping (the config-file face).

        Keys mirror the ``serving`` config section: ``host``, ``port``,
        ``batch_size``, ``batch_deadline_ms``, ``max_queue_rows``,
        ``request_timeout_ms`` and ``model_path`` — all optional, with the
        constructor's defaults.  Durations arrive in *milliseconds* (the
        config-facing unit) and convert to the seconds the constructor takes.
        """
        deadline_ms = settings.get("batch_deadline_ms")
        timeout_ms = settings.get("request_timeout_ms")
        kwargs = {
            "host": settings.get("host", "127.0.0.1"),
            "port": settings.get("port", 0),
            "batch_size": settings.get("batch_size", 64),
            "max_queue_rows": settings.get("max_queue_rows", 4096),
            "model_path": settings.get("model_path"),
        }
        if deadline_ms is not None:
            kwargs["batch_deadline"] = float(deadline_ms) / 1000.0
        if timeout_ms is not None:
            kwargs["request_timeout"] = float(timeout_ms) / 1000.0
        return cls(runner, **kwargs)

    # ------------------------------------------------------------ lifecycle
    async def start(self) -> None:
        """Bind the listening socket and start the flush loop.

        After this returns, :attr:`port` holds the actual bound port.
        """
        await self.batcher.start()
        self._server = await asyncio.start_server(self._handle_connection, self.host, self.port)
        sock = self._server.sockets[0]
        self.port = sock.getsockname()[1]

    async def stop(self, drain: bool = True) -> None:
        """Graceful shutdown: stop accepting, answer everything in flight.

        With ``drain=True`` (default) new ``POST /predict`` admissions are
        refused with ``503`` while every already-queued request is flushed,
        dispatched and answered before the sockets close — no accepted
        request is ever dropped.  ``drain=False`` abandons the queue
        (pending callers receive :class:`ServingClosedError`).
        """
        self._draining = True
        if self._server is not None:
            # close() stops accepting immediately; wait_closed() must come
            # AFTER the drain — on Python >= 3.12 it waits for in-flight
            # connection handlers, which are parked on the batcher.
            self._server.close()
        if drain:
            await self.batcher.drain()
        else:
            self.batcher._closed = True
            for item in list(self.batcher._pending):
                if not item.future.done():
                    item.future.set_exception(ServingClosedError("server shut down"))
            await self.batcher.drain()
        # Let in-flight response writes finish before tearing connections down.
        for _ in range(100):
            if not self._connections:
                break
            await asyncio.sleep(0.01)
        for writer in list(self._connections):
            writer.close()
        if self._server is not None:
            try:
                await asyncio.wait_for(self._server.wait_closed(), timeout=5.0)
            except asyncio.TimeoutError:  # pragma: no cover - defensive
                pass

    async def serve_forever(self) -> None:
        """Start, then run until cancelled (SIGINT/SIGTERM in the CLI)."""
        await self.start()
        stop_event = asyncio.Event()
        loop = asyncio.get_running_loop()
        try:
            import signal

            for sig in (signal.SIGINT, signal.SIGTERM):
                loop.add_signal_handler(sig, stop_event.set)
        except (NotImplementedError, RuntimeError, ValueError):  # pragma: no cover
            pass  # non-posix loop or non-main thread: no signal-driven shutdown
        try:
            await stop_event.wait()
        finally:
            await self.stop(drain=True)

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------- HTTP machinery
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _BadRequest as exc:
                    await self._respond(writer, exc.status, {"error": str(exc)}, close=True)
                    return
                if request is None:
                    return
                status, payload, headers = await self._route(request)
                keep = request.keep_alive and not self._draining
                await self._respond(writer, status, payload, headers=headers, close=not keep)
                if not keep:
                    return
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _read_request(self, reader: asyncio.StreamReader) -> Optional[_Request]:
        """Parse one HTTP/1.1 request; ``None`` on a cleanly closed socket."""
        try:
            request_line = await reader.readline()
        except (ConnectionResetError, asyncio.IncompleteReadError):
            return None
        if not request_line:
            return None
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _BadRequest("malformed request line")
        method, path = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            if len(headers) > 100:
                raise _BadRequest("too many headers")
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep:
                raise _BadRequest("malformed header line")
            headers[name.strip().lower()] = value.strip()
        length = headers.get("content-length", "0")
        try:
            n_body = int(length)
        except ValueError:
            raise _BadRequest("malformed Content-Length") from None
        if n_body > MAX_BODY_BYTES:
            raise _BadRequest(
                f"request body of {n_body} bytes exceeds the {MAX_BODY_BYTES}-byte "
                "bound (use `repro predict` for bulk inference)",
                status=413,
            )
        body = await reader.readexactly(n_body) if n_body else b""
        return _Request(method, path, headers, body)

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, object],
        headers: Optional[Dict[str, str]] = None,
        close: bool = False,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {'close' if close else 'keep-alive'}",
        ]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)
        await writer.drain()

    # -------------------------------------------------------------- routing
    async def _route(
        self, request: _Request
    ) -> Tuple[int, Dict[str, object], Optional[Dict[str, str]]]:
        route = (request.method, request.path.split("?", 1)[0])
        if route == ("GET", "/healthz"):
            return self._healthz()
        if route == ("GET", "/metrics"):
            return 200, self._metrics_payload(), None
        if route == ("POST", "/predict"):
            return await self._predict(request)
        if route == ("POST", "/reload"):
            return await self._reload(request)
        if route[1] in ("/healthz", "/metrics", "/predict", "/reload"):
            self.metrics.observe(route[1], 405)
            return 405, {"error": f"{request.method} not allowed on {route[1]}"}, None
        self.metrics.observe("unknown", 404)
        return 404, {"error": f"no such endpoint: {route[1]}"}, None

    def _healthz(self) -> Tuple[int, Dict[str, object], None]:
        status = 503 if self._draining else 200
        payload = {
            "status": "draining" if self._draining else "ok",
            "model_version": self.runner.version,
            "queued_rows": self.batcher.queued_rows,
        }
        self.metrics.observe("/healthz", status)
        return status, payload, None

    def _metrics_payload(self) -> Dict[str, object]:
        self.metrics.observe("/metrics", 200)
        payload = self.metrics.snapshot()
        payload["batcher"] = self.batcher.stats.as_dict()
        payload["queued_rows"] = self.batcher.queued_rows
        payload["model_version"] = self.runner.version
        payload["reloads"] = self.reloads
        payload["draining"] = self._draining
        return payload

    def _parse_predict_body(
        self, body: bytes
    ) -> Tuple[np.ndarray, bool, Optional[str], Optional[str]]:
        decoded = decode_rows_first(body) if len(body) >= FAST_DECODE_MIN_BYTES else None
        if decoded is None:
            try:
                doc = json.loads(body.decode("utf-8"))
            except (ValueError, UnicodeDecodeError, RecursionError) as exc:
                raise _BadRequest(f"request body is not valid JSON: {exc}") from None
            if not isinstance(doc, dict) or "rows" not in doc:
                raise _BadRequest('request body must be a JSON object with a "rows" key')
            rows = doc["rows"]
        else:
            matrix, doc = decoded
        proba = doc.get("proba", False)
        if not isinstance(proba, bool):
            raise _BadRequest(f'"proba" must be true or false, got {json.dumps(proba)}')
        backend = doc.get("backend")
        if backend is not None:
            from repro.backend import list_backends

            known = list_backends()
            if not isinstance(backend, str) or backend not in known:
                raise _BadRequest(
                    f'unknown "backend" {backend!r} (available: {", ".join(known)})'
                )
        sparse = doc.get("sparse")
        if sparse is not None and sparse not in ("auto", "on", "off"):
            raise _BadRequest(f'"sparse" must be "auto", "on" or "off", got {sparse!r}')
        if decoded is None:
            if not isinstance(rows, list) or not rows:
                raise _BadRequest('"rows" must be a non-empty list of feature rows')
            try:
                matrix = np.asarray(rows, dtype=np.float64)
            except (TypeError, ValueError, OverflowError) as exc:
                raise _BadRequest(f'"rows" is not a numeric matrix: {exc}') from None
            if matrix.ndim != 2:
                raise _BadRequest(
                    f'"rows" must be 2-D (a list of rows), got shape {matrix.shape}'
                )
            # np.asarray reads true, "1" and null as numbers; JSON clients mean otherwise.
            if not set(map(type, chain.from_iterable(rows))) <= {int, float}:
                found = next(v for v in chain.from_iterable(rows) if type(v) not in (int, float))
                raise _BadRequest(f'"rows" entries must be numbers, found {json.dumps(found)}')
        expected = self.runner.n_features
        if matrix.shape[1] != expected:
            raise _BadRequest(
                f"rows have {matrix.shape[1]} features, the model expects {expected}"
            )
        if not np.isfinite(matrix).all():
            raise _BadRequest('"rows" contains NaN or infinite values')
        return matrix, proba, backend, sparse

    async def _predict(
        self, request: _Request
    ) -> Tuple[int, Dict[str, object], Optional[Dict[str, str]]]:
        start = time.perf_counter()
        if self._draining:
            self.metrics.observe("/predict", 503)
            return 503, {"error": "server is draining"}, {"Retry-After": "1"}
        try:
            matrix, proba, backend, sparse = self._parse_predict_body(request.body)
        except _BadRequest as exc:
            self.metrics.observe("/predict", exc.status)
            return exc.status, {"error": str(exc)}, None
        if backend is not None or sparse is not None:
            # Override requests cannot coalesce with default-path traffic
            # (different predictor, possibly different network clone), so
            # they bypass the micro-batcher and dispatch standalone off-loop.
            loop = asyncio.get_running_loop()
            try:
                result = await loop.run_in_executor(
                    None,
                    lambda: self.runner.run_batch(matrix, backend=backend, sparse=sparse),
                )
            except ReproError as exc:
                self.metrics.observe("/predict", 500)
                return 500, {"error": str(exc)}, None
            payload: Dict[str, object] = {
                "predictions": result.predictions.tolist(),
                "model_version": result.model_version,
                "batch_rows": int(matrix.shape[0]),
            }
            if proba:
                payload["probabilities"] = result.probabilities.tolist()
            self.metrics.observe("/predict", 200, latency=time.perf_counter() - start)
            return 200, payload, None
        try:
            result = await self.batcher.submit(matrix)
        except QueueFullError as exc:
            self.metrics.observe("/predict", 503)
            return 503, {"error": str(exc)}, {"Retry-After": str(exc.retry_after)}
        except ServingClosedError as exc:
            self.metrics.observe("/predict", 503)
            return 503, {"error": str(exc)}, {"Retry-After": "1"}
        except DeadlineExceededError as exc:
            self.metrics.observe("/predict", 504)
            return 504, {"error": str(exc)}, None
        except DispatchError as exc:
            self.metrics.observe("/predict", 500)
            return 500, {"error": str(exc)}, None
        payload: Dict[str, object] = {
            "predictions": result.predictions.tolist(),
            "model_version": result.model_version,
            "batch_rows": result.batch_rows,
        }
        if proba:
            payload["probabilities"] = result.probabilities.tolist()
        self.metrics.observe("/predict", 200, latency=time.perf_counter() - start)
        return 200, payload, None

    async def _reload(
        self, request: _Request
    ) -> Tuple[int, Dict[str, object], Optional[Dict[str, str]]]:
        if self._draining:
            self.metrics.observe("/reload", 503)
            return 503, {"error": "server is draining"}, {"Retry-After": "1"}
        path = self.model_path
        if request.body:
            try:
                doc = json.loads(request.body.decode("utf-8"))
            except (ValueError, UnicodeDecodeError) as exc:
                self.metrics.observe("/reload", 400)
                return 400, {"error": f"request body is not valid JSON: {exc}"}, None
            if not isinstance(doc, dict):
                self.metrics.observe("/reload", 400)
                return 400, {"error": "reload body must be a JSON object"}, None
            path = doc.get("model", path)
        if not path:
            self.metrics.observe("/reload", 400)
            return 400, {"error": 'no model path: POST {"model": PATH} or start with one'}, None
        loop = asyncio.get_running_loop()

        def load_and_swap() -> int:
            from pathlib import Path

            from repro.core import load_network

            # load + swap run off-loop; swap only flips the pointer, so the
            # event loop (and any in-flight batch) never blocks on the load.
            # A path inside a checkpoint directory (its parent holds a
            # MANIFEST.json) routes through the checkpoint loader, which
            # re-verifies the archive's SHA-256 against the manifest before
            # any byte of it reaches the runner — a corrupt or truncated
            # checkpoint is rejected here (400) and the old model keeps
            # serving.
            p = Path(path)
            from repro.checkpoint import MANIFEST_NAME, network_from_checkpoint

            if (p.parent / MANIFEST_NAME).is_file():
                return self.runner.swap(network_from_checkpoint(p))
            return self.runner.swap(load_network(path))

        try:
            version = await loop.run_in_executor(None, load_and_swap)
        except ReproError as exc:
            self.metrics.observe("/reload", 400)
            return 400, {"error": f"reload failed (model unchanged): {exc}"}, None
        self.reloads += 1
        self.metrics.observe("/reload", 200)
        return 200, {"model_version": version, "model": str(path)}, None


class ServerThread:
    """Run a :class:`PredictionServer` on a background event-loop thread.

    Synchronous harness for tests, the latency benchmark and notebook use:

    >>> with ServerThread(PredictionServer(runner)) as handle:
    ...     requests.post(handle.url + "/predict", ...)

    ``swap_model(network)`` hot-swaps in-process (the same runner path the
    ``/reload`` endpoint uses — retraining in the driver process can push a
    new model without touching disk).
    """

    def __init__(self, server: PredictionServer, startup_timeout: float = 10.0) -> None:
        self.server = server
        self._startup_timeout = startup_timeout
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None

    def __enter__(self) -> "ServerThread":
        self._loop = asyncio.new_event_loop()
        started = threading.Event()

        def run() -> None:
            asyncio.set_event_loop(self._loop)
            started.set()
            self._loop.run_forever()

        self._thread = threading.Thread(target=run, name="repro-serve", daemon=True)
        self._thread.start()
        started.wait(self._startup_timeout)
        future = asyncio.run_coroutine_threadsafe(self.server.start(), self._loop)
        future.result(self._startup_timeout)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def stop(self, drain: bool = True) -> None:
        """Stop the server (graceful drain by default) and join the thread."""
        if self._loop is None:
            return
        future = asyncio.run_coroutine_threadsafe(self.server.stop(drain=drain), self._loop)
        try:
            future.result(30.0)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(10.0)
            self._loop.close()
            self._loop = None

    def swap_model(self, network) -> int:
        """In-process hot-swap (thread-safe); returns the new model version."""
        return self.server.runner.swap(network)

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def url(self) -> str:
        return self.server.url


def wait_until_listening(host: str, port: int, timeout: float = 10.0) -> None:
    """Block until a TCP connect to ``host:port`` succeeds (smoke helper)."""
    end = time.monotonic() + timeout
    while True:
        try:
            with socket.create_connection((host, port), timeout=1.0):
                return
        except OSError:
            if time.monotonic() > end:
                raise
            time.sleep(0.05)
