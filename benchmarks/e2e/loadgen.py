"""Closed-loop HTTP load generator: one process, N keep-alive connections.

Closed loop: each connection sends its next request only after the previous
reply has been read, so a slower server receives less load (callers that each
wait for a reply; ``N`` = 2 = ``nproc`` on the box the bounds were set on).
Latency is timed per request from just before the send to the last byte of the
reply; parsing and label checking happen outside the timed interval.

Runs as its own process so the generator never shares the server's GIL::

    python loadgen.py PLAN.json     # writes PLAN["result_path"]
"""

from __future__ import annotations

import http.client
import json
import sys
import threading
import time
from typing import Dict, List, Tuple

REQUEST_TIMEOUT_S = 10.0
MAX_RECORDED_ERRORS = 5
#: A connection that dies in warm-up must not leave the others waiting forever.
BARRIER_TIMEOUT_S = 60.0


def build_requests(x, expected, rows: int, pool: int, seed: int) -> List[Tuple[bytes, List[int]]]:
    """``pool`` distinct pre-encoded request bodies with their expected labels.

    Bodies are encoded before the stage starts, so the client's JSON encoding
    is not part of any measured latency.  Row windows come from ``seed``.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    starts = rng.integers(0, max(x.shape[0] - rows, 0) + 1, size=pool)
    out = []
    for start in starts:
        window = slice(int(start), int(start) + rows)
        body = json.dumps({"rows": x[window].tolist()}).encode("utf-8")
        out.append((body, [int(v) for v in expected[window]]))
    return out


class _Shared:
    """State the connections share: the stop rule and the measured records."""

    def __init__(self, min_requests: int) -> None:
        self.lock = threading.Lock()
        self.min_requests = min_requests
        self.deadline = float("inf")
        self.records: List[Tuple[float, bool, int]] = []  # (latency_ms, ok, rows)
        self.reload_s: List[float] = []
        self.versions: List[int] = []
        self.errors: List[str] = []
        self.reload_ok = 0
        self.reload_failed = 0
        self.started = 0.0
        self.last_reply = 0.0

    def keep_going(self) -> bool:
        with self.lock:
            return time.perf_counter() < self.deadline or len(self.records) < self.min_requests

    def fail(self, message: str) -> None:
        with self.lock:
            if len(self.errors) < MAX_RECORDED_ERRORS:
                self.errors.append(message)


def _post(conn: http.client.HTTPConnection, path: str, body: bytes) -> Tuple[int, bytes, float]:
    start = time.perf_counter()
    conn.request("POST", path, body=body, headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    payload = response.read()
    return response.status, payload, time.perf_counter() - start


def _predict_once(conn, body: bytes, labels: List[int], shared: _Shared, last_version: List[int]):
    """One ``POST /predict``; returns ``(latency_s, ok)``.  A non-200, a timeout
    or a wrong label is a failure."""
    try:
        status, payload, latency = _post(conn, "/predict", body)
    except (OSError, http.client.HTTPException) as exc:
        shared.fail(f"/predict transport error: {exc!r}")
        conn.close()
        return REQUEST_TIMEOUT_S, False
    if status != 200:
        shared.fail(f"/predict replied {status}: {payload[:120]!r}")
        return latency, False
    doc = json.loads(payload)
    if doc.get("predictions") != labels:
        shared.fail("served labels differ from Network.predict")
        return latency, False
    version = int(doc.get("model_version", 0))
    if version < last_version[0]:
        shared.fail(f"model_version went backwards: {version} < {last_version[0]}")
        return latency, False
    last_version[0] = version
    return latency, True


def _reload_once(conn, reload_body: bytes, shared: _Shared) -> bool:
    try:
        status, payload, latency = _post(conn, "/reload", reload_body)
    except (OSError, http.client.HTTPException) as exc:
        shared.fail(f"/reload transport error: {exc!r}")
        conn.close()
        return False
    if status != 200:
        shared.fail(f"/reload replied {status}: {payload[:120]!r}")
        return False
    version = int(json.loads(payload).get("model_version", 0))
    with shared.lock:
        increasing = not shared.versions or version > shared.versions[-1]
        shared.versions.append(version)
        shared.reload_s.append(latency)
    if not increasing:
        shared.fail(f"/reload model_version did not increase: {shared.versions[-2:]}")
    return increasing


def _connection_loop(
    index: int,
    plan: Dict[str, object],
    requests: List[Tuple[bytes, List[int]]],
    shared: _Shared,
    warmup_done: threading.Barrier,
    warmup_failures: List[int],
) -> None:
    conn = http.client.HTTPConnection(plan["host"], plan["port"], timeout=REQUEST_TIMEOUT_S)
    connections = int(plan["connections"])
    last_version = [0]
    position = index
    for _ in range(int(plan["warmup_requests"]) // connections):
        body, labels = requests[position % len(requests)]
        position += connections
        if not _predict_once(conn, body, labels, shared, last_version)[1]:
            warmup_failures[index] += 1
    # Everybody starts the measured stage together; thread 0 sets the clock.
    if warmup_done.wait(BARRIER_TIMEOUT_S) == 0:
        with shared.lock:
            shared.started = time.perf_counter()
            shared.deadline = shared.started + float(plan["seconds"])
    warmup_done.wait(BARRIER_TIMEOUT_S)

    reload_body = None
    if index == 0 and plan.get("reload_path"):
        reload_body = json.dumps({"model": plan["reload_path"]}).encode("utf-8")
    sent = 0
    while shared.keep_going():
        sent += 1
        if reload_body is not None and sent % int(plan["reload_every"]) == 0:
            ok = _reload_once(conn, reload_body, shared)
            with shared.lock:
                shared.reload_ok += int(ok)
                shared.reload_failed += int(not ok)
                shared.last_reply = time.perf_counter()
            continue
        body, labels = requests[position % len(requests)]
        position += connections
        latency, ok = _predict_once(conn, body, labels, shared, last_version)
        with shared.lock:
            shared.records.append((latency * 1e3, ok, len(labels)))
            shared.last_reply = time.perf_counter()
    conn.close()


def run(plan: Dict[str, object]) -> Dict[str, object]:
    import numpy as np

    data = np.load(plan["data_path"])
    requests = build_requests(
        data["x"], data["expected"], int(plan["request_rows"]), int(plan["pool"]), int(plan["seed"])
    )
    connections = int(plan["connections"])
    shared = _Shared(int(plan["min_requests"]))
    barrier = threading.Barrier(connections)
    warmup_failures = [0] * connections
    threads = [
        threading.Thread(
            target=_connection_loop,
            args=(i, plan, requests, shared, barrier, warmup_failures),
            name=f"loadgen-{i}",
        )
        for i in range(connections)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    ok = [r for r in shared.records if r[1]]
    reload_ok, reload_failed = shared.reload_ok, shared.reload_failed
    warmup_sent = (int(plan["warmup_requests"]) // connections) * connections
    return {
        "connections": connections,
        "closed_loop": True,
        "wall_s": shared.last_reply - shared.started,
        "latencies_ms": [r[0] for r in ok],
        "sent": len(shared.records) + reload_ok + reload_failed,
        "ok": len(ok) + reload_ok,
        "failed": len(shared.records) - len(ok) + reload_failed,
        "rows_ok": sum(r[2] for r in ok),
        "reload_s": shared.reload_s,
        "reload_versions": shared.versions,
        "warmup_sent": warmup_sent,
        "warmup_failed": sum(warmup_failures),
        "errors": shared.errors,
    }


def main(argv: List[str]) -> int:
    if len(argv) != 1:
        print("usage: loadgen.py PLAN.json", file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as handle:
        plan = json.load(handle)
    result = run(plan)
    with open(plan["result_path"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
