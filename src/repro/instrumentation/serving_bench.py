"""Closed-loop latency/throughput measurement of the online serving path.

:func:`measure_serving_latency` stands up a real :class:`PredictionServer`
(ephemeral port, Higgs-sized model) and drives it with a **closed-loop
client population**: ``n_clients`` connections each keep exactly one request
in flight (send, wait, send again) over persistent HTTP connections.  Closed
loops measure the operating point a saturated-but-stable service sits at —
open-loop (fixed-rate) injection above saturation just measures queue
growth.  The clients run in a **child process** (as
``benchmarks/e2e/loadgen.py`` does), so the generator never shares the
server's GIL: client threads inside the server process make the saturated
phase measure interpreter contention, not the server.

Two phases are measured:

* ``single_client`` — one closed-loop client, the no-coalescing baseline:
  every request rides its own micro-batch, dispatched the moment it is
  queued (the worker is idle, nothing else is arriving), so this is the
  per-request floor of the stack (HTTP parse + queue hop + one engine
  dispatch of one request).  It is *not* deadline-bound.
* ``saturated`` — ``n_clients`` concurrent closed-loop clients: requests
  that arrive while a dispatch is in flight coalesce into the next
  micro-batch and the per-request cost amortises into one fused dispatch.
  ``batching_gain`` is the throughput ratio of the two phases, and
  ``mean_batch_rows`` shows the fill the saturated phase achieved.

The CI gate (``--check-latency`` in ``benchmarks/bench_kernels.py``) bounds
the saturated p99 latency and requires zero failed requests.
"""

from __future__ import annotations

import http.client
import json
import multiprocessing
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional

import numpy as np

__all__ = ["measure_serving_latency"]


def _bench_network(n_minicolumns: int = 300, seed: int = 0):
    """A built Higgs-sized network (same shape as the kernel benchmarks)."""
    from repro.core import BCPNNClassifier, InputSpec, Network, StructuralPlasticityLayer

    network = Network(seed=seed, name="bench-serving-latency")
    network.add(StructuralPlasticityLayer(1, n_minicolumns, density=0.4, seed=1))
    network.add(BCPNNClassifier(n_classes=2))
    network.build(InputSpec([10] * 28))
    return network


def _one_hot_rows(n_rows: int, input_sizes: List[int], seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    total = sum(input_sizes)
    x = np.zeros((n_rows, total))
    offset = 0
    for size in input_sizes:
        winners = rng.integers(0, size, size=n_rows)
        x[np.arange(n_rows), offset + winners] = 1.0
        offset += size
    return x


class _ClosedLoopClient(threading.Thread):
    """One closed-loop client: send, wait for the reply, send again."""

    def __init__(
        self,
        host: str,
        port: int,
        payloads: List[bytes],
        stop_at: float,
        max_requests: int,
    ) -> None:
        super().__init__(daemon=True)
        self.host, self.port = host, port
        self.payloads = payloads
        self.stop_at = stop_at
        self.max_requests = max_requests
        self.latencies: List[float] = []
        self.rows_done = 0
        self.failures = 0

    def run(self) -> None:  # pragma: no cover - exercised via the benchmark
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30.0)
        headers = {"Content-Type": "application/json", "Connection": "keep-alive"}
        i = 0
        try:
            while time.monotonic() < self.stop_at and len(self.latencies) < self.max_requests:
                body = self.payloads[i % len(self.payloads)]
                start = time.perf_counter()
                try:
                    conn.request("POST", "/predict", body=body, headers=headers)
                    response = conn.getresponse()
                    data = response.read()
                except (OSError, http.client.HTTPException):
                    self.failures += 1
                    conn.close()
                    conn = http.client.HTTPConnection(self.host, self.port, timeout=30.0)
                    continue
                elapsed = time.perf_counter() - start
                if response.status == 200:
                    self.latencies.append(elapsed)
                    self.rows_done += len(json.loads(data)["predictions"])
                else:
                    self.failures += 1
                i += 1
        finally:
            conn.close()


def _run_phase(
    host: str,
    port: int,
    n_clients: int,
    payloads: List[bytes],
    duration: float,
    max_requests_per_client: int,
) -> Dict[str, float]:
    stop_at = time.monotonic() + duration
    clients = [
        _ClosedLoopClient(host, port, payloads, stop_at, max_requests_per_client)
        for _ in range(n_clients)
    ]
    start = time.perf_counter()
    for client in clients:
        client.start()
    for client in clients:
        client.join()
    elapsed = time.perf_counter() - start
    latencies = np.asarray(
        [lat for client in clients for lat in client.latencies], dtype=np.float64
    )
    rows = sum(client.rows_done for client in clients)
    failures = sum(client.failures for client in clients)
    phase: Dict[str, float] = {
        "clients": float(n_clients),
        "requests": float(latencies.size),
        "rows": float(rows),
        "failures": float(failures),
        "seconds": float(elapsed),
        "requests_per_second": float(latencies.size / max(elapsed, 1e-9)),
        "rows_per_second": float(rows / max(elapsed, 1e-9)),
    }
    if latencies.size:
        phase["p50_ms"] = float(np.percentile(latencies, 50) * 1e3)
        phase["p90_ms"] = float(np.percentile(latencies, 90) * 1e3)
        phase["p99_ms"] = float(np.percentile(latencies, 99) * 1e3)
        phase["max_ms"] = float(latencies.max() * 1e3)
    return phase


def measure_serving_latency(
    n_clients: int = 8,
    rows_per_request: int = 4,
    duration: float = 2.0,
    batch_size: int = 256,
    batch_deadline: float = 0.002,
    n_minicolumns: int = 300,
    max_requests_per_client: int = 100_000,
    network=None,
    backend: Optional[str] = None,
) -> Dict[str, object]:
    """Measure online-serving latency percentiles and saturation throughput.

    Parameters
    ----------
    n_clients:
        Closed-loop client threads in the saturated phase (each keeps one
        request in flight).
    rows_per_request:
        Rows per ``POST /predict`` request (1 = the pure single-row
        request-facing workload).
    duration:
        Seconds per phase.
    batch_size / batch_deadline:
        Micro-batcher flush thresholds (rows / seconds).
    network:
        Optional prebuilt network (default: the Higgs-sized benchmark
        model).

    Returns
    -------
    dict
        ``config``, per-phase ``single_client``/``saturated`` blocks
        (p50/p90/p99 ms, rows/s, failures), ``batching_gain`` (saturated
        over single-client rows/s) and the saturated phase's
        ``mean_batch_rows``.
    """
    from repro.serving import ModelRunner, PredictionServer, ServerThread

    if network is None:
        network = _bench_network(n_minicolumns=n_minicolumns)
    runner = ModelRunner(network, batch_size=batch_size, backend=backend)
    server = PredictionServer(
        runner,
        port=0,
        batch_size=batch_size,
        batch_deadline=batch_deadline,
        max_queue_rows=max(4096, batch_size * 8),
    )
    input_sizes = network.hidden_layers[0].input_spec.hypercolumn_sizes
    # A rotation of pre-serialised payloads so JSON encoding cost stays off
    # the client's critical path measurements as much as possible.
    rows = _one_hot_rows(64 * rows_per_request, input_sizes, seed=3)
    payloads = [
        json.dumps(
            {"rows": rows[k * rows_per_request : (k + 1) * rows_per_request].tolist()}
        ).encode("utf-8")
        for k in range(64)
    ]
    stats = server.batcher.stats
    spawn = multiprocessing.get_context("spawn")
    with ServerThread(server) as handle, ProcessPoolExecutor(1, mp_context=spawn) as child:
        def phase(clients: int, seconds: float, max_requests: int) -> Dict[str, float]:
            args = (server.host, handle.port, clients, payloads, seconds, max_requests)
            return child.submit(_run_phase, *args).result()

        # Warm the predictor workspaces and HTTP path before timing.
        phase(1, min(0.3, duration), 50)
        single = phase(1, duration, max_requests_per_client)
        batches_before, rows_before = stats.batches, stats.batch_rows
        saturated = phase(n_clients, duration, max_requests_per_client)
        saturated_fill = (stats.batch_rows - rows_before) / max(stats.batches - batches_before, 1)
        batcher_stats = stats.as_dict()
    gain = saturated["rows_per_second"] / max(single["rows_per_second"], 1e-9)
    return {
        "config": {
            "n_clients": int(n_clients),
            "rows_per_request": int(rows_per_request),
            "duration_seconds": float(duration),
            "batch_size": int(batch_size),
            "batch_deadline_seconds": float(batch_deadline),
            "n_input": int(sum(input_sizes)),
            "n_hidden": int(n_minicolumns),
            "backend": backend or "per-layer default",
        },
        "single_client": single,
        "saturated": saturated,
        "batching_gain": float(gain),
        "mean_batch_rows": float(saturated_fill),
        "batcher": batcher_stats,
    }
