"""Drive the docs/serving.md example session against a live ``repro serve``.

The CI docs job starts ``python -m repro.cli serve`` on a freshly trained
model and runs this script against it.  It replays every call the
documentation shows — ``GET /healthz``, ``POST /predict`` (plain and with
``"proba": true``), ``POST /reload``, ``GET /metrics`` — and asserts the
responses match what the docs promise, including that the served
predictions are identical to ``Network.predict`` on the same rows — posted
as integer literals and as ``0.0``/``1.0`` literals (both read by the
rows-first decoder) and with ``"proba"`` ahead of ``"rows"`` (read by
``json.loads``) — and that a lone request is never held for the batch
deadline.  A docs edit that drifts from the server's actual behaviour
therefore fails CI, not just a reader.

    python tools/serve_smoke.py --model model.npz --url http://127.0.0.1:8477
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import urllib.error
import urllib.request

import numpy as np


def _request(url: str, method: str = "GET", body: dict | None = None, timeout: float = 10.0):
    data = None if body is None else json.dumps(body).encode("utf-8")
    req = urllib.request.Request(
        url, data=data, method=method, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return resp.status, json.loads(resp.read().decode("utf-8"))


def _wait_until_up(base: str, deadline: float) -> dict:
    last_error: Exception | None = None
    while time.monotonic() < deadline:
        try:
            status, payload = _request(f"{base}/healthz", timeout=2.0)
            if status == 200:
                return payload
        except (urllib.error.URLError, ConnectionError, OSError) as exc:
            last_error = exc
        time.sleep(0.2)
    raise SystemExit(f"server at {base} never became healthy: {last_error}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", required=True, help="the .npz the server is serving")
    parser.add_argument("--url", default="http://127.0.0.1:8477", help="server base URL")
    parser.add_argument("--startup-timeout", type=float, default=60.0)
    args = parser.parse_args(argv)
    base = args.url.rstrip("/")

    from repro.core import load_network

    network = load_network(args.model)
    spec = network.hidden_layers[0].input_spec if network.hidden_layers else None
    spec = spec or getattr(network, "input_spec", None)
    width = int(spec.n_units)

    # Deterministic probe rows of the model's encoded feature width: 32 of
    # them, so the bodies are large enough for the server's rows-first
    # decoder and each request is still less than one (64-row) batch.
    rng = np.random.default_rng(0)
    rows = np.zeros((32, width))
    rows[np.arange(32), rng.integers(0, width, size=32)] = 1.0
    expected = network.predict(rows)

    health = _wait_until_up(base, time.monotonic() + args.startup_timeout)
    assert health["status"] == "ok", health
    v1 = int(health["model_version"])
    print(f"healthz ok (model_version={v1})")

    spellings = {
        "integer literals": {"rows": rows.astype(np.uint8).tolist()},
        "0.0/1.0 literals": {"rows": rows.tolist()},
        "proba before rows": {"proba": False, "rows": rows.tolist()},  # the general parser
    }
    for spelling, body in spellings.items():
        status, payload = _request(f"{base}/predict", "POST", body)
        assert status == 200, (spelling, status, payload)
        assert payload["predictions"] == expected.tolist(), (spelling, payload["predictions"])
        assert payload["model_version"] == v1 and payload["batch_rows"] >= len(rows)
        print(f"predict ok as {spelling} (matches Network.predict)")

    status, payload = _request(f"{base}/predict", "POST", {"rows": rows.tolist(), "proba": True})
    assert status == 200 and "probabilities" in payload, (status, payload)
    proba = np.asarray(payload["probabilities"])
    assert proba.shape == (len(rows), proba.shape[1])
    assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-6), proba.sum(axis=1)
    print("predict proba ok (row-stochastic probabilities)")

    status, payload = _request(f"{base}/reload", "POST", {"model": args.model})
    assert status == 200 and int(payload["model_version"]) == v1 + 1, (status, payload)
    print(f"reload ok (model_version={payload['model_version']})")

    status, payload = _request(f"{base}/predict", "POST", {"rows": rows.tolist()})
    assert status == 200 and payload["model_version"] == v1 + 1, (status, payload)
    assert payload["predictions"] == expected.tolist()
    print("predict after reload ok (same model file, new version)")

    status, payload = _request(f"{base}/metrics")
    assert status == 200, (status, payload)
    for key in ("batcher", "queued_rows", "model_version", "reloads"):
        assert key in payload, f"/metrics missing {key!r}: {sorted(payload)}"
    assert int(payload["reloads"]) >= 1
    # Every POST above was alone on the server: each must have been dispatched
    # the moment it was queued, never held for --batch-deadline-ms.
    batcher = payload["batcher"]
    assert batcher["flush_deadline"] == 0 and batcher["flush_idle"] >= 1, batcher
    print("metrics ok (lone requests were not held for the batch deadline)")
    print("serving smoke: the docs/serving.md example session holds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
