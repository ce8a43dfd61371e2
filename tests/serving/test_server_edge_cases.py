"""Serving edge cases: backpressure, hot-swap consistency, graceful drain.

These are the failure-path acceptance tests for the online endpoint:

* a lone request is answered at once — it never waits out the coalescing
  deadline;
* a full queue answers ``503`` with ``Retry-After`` instead of queueing
  unboundedly;
* a mid-flight ``POST /reload`` never tears a micro-batch — every
  concurrent request succeeds and reports the version that actually
  served it, with predictions consistent with that version;
* graceful shutdown answers everything already admitted;
* malformed input of every shape is a ``4xx``, never a crash or a hang.

No test here sleeps to *make* something happen: "a dispatch is in flight" is
held with a ``threading.Event`` gate on the dispatch, and every other
precondition is awaited as a condition (see :mod:`tests.serving.gates`).
"""

from __future__ import annotations

import http.client
import json
import threading

import numpy as np
import pytest

from repro.core import (
    BCPNNHyperParameters,
    Network,
    SGDClassifier,
    StructuralPlasticityLayer,
    TrainingSchedule,
    save_network,
)
from repro.serving import ModelRunner, PredictionServer, ServerThread
from tests.serving.gates import GatedDispatch, wait_until


def _post(port, path, body, timeout=15):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request(
            "POST",
            path,
            body=body if isinstance(body, bytes) else json.dumps(body).encode(),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"{}"), dict(
            response.getheaders()
        )
    finally:
        conn.close()


def _train_variant(encoded_higgs, seed):
    """A second small model distinguishable from ``trained_network``."""
    network = Network(seed=seed, name=f"variant-{seed}")
    network.add(
        StructuralPlasticityLayer(
            n_hypercolumns=2,
            n_minicolumns=30,
            hyperparams=BCPNNHyperParameters(taupdt=0.02, density=0.4),
            seed=seed + 1,
        )
    )
    network.add(SGDClassifier(n_classes=2, learning_rate=0.1, seed=seed + 2))
    network.fit(
        encoded_higgs["x_train"][:800],
        encoded_higgs["y_train"][:800],
        input_spec=encoded_higgs["spec"],
        schedule=TrainingSchedule(hidden_epochs=1, classifier_epochs=2, batch_size=128),
    )
    return network


def test_lone_request_is_answered_without_a_deadline_flush(trained_network, encoded_higgs):
    """One lone request is dispatched at once: worker free, nothing else arriving."""
    runner = ModelRunner(trained_network, batch_size=256)
    # A minute-long coalescing cap: if anything still waited on it, the
    # client below would time out instead of reading a 200.
    server = PredictionServer(runner, port=0, batch_size=256, batch_deadline=60.0)
    row = encoded_higgs["x_test"][:1]
    with ServerThread(server) as handle:
        status, doc, _ = _post(handle.port, "/predict", {"rows": row.tolist()})
    assert status == 200
    assert doc["batch_rows"] == 1
    stats = server.batcher.stats
    assert (stats.flush_idle, stats.flush_deadline, stats.flush_full) == (1, 0, 0)


def test_queue_full_returns_503_with_retry_after(trained_network, encoded_higgs):
    """Admission beyond max_queue_rows is a 503 + Retry-After, not a hang."""
    runner = ModelRunner(trained_network, batch_size=8)
    runner.run_batch = gate = GatedDispatch(runner.run_batch)
    server = PredictionServer(
        runner, port=0, batch_size=8, batch_deadline=0.001, max_queue_rows=8
    )
    rows = encoded_higgs["x_test"][:8].tolist()
    outcomes = []
    lock = threading.Lock()

    def client():
        result = _post(server.port, "/predict", {"rows": rows}, timeout=30)
        with lock:
            outcomes.append(result)

    with ServerThread(server):
        threads = [threading.Thread(target=client) for _ in range(2)]
        # The first request occupies the dispatch thread, the second fills
        # the 8-row queue; the third admission must be rejected at once.
        threads[0].start()
        assert gate.entered.wait(30.0)
        threads[1].start()
        wait_until(lambda: server.batcher.queued_rows == 8, "the queue is at its bound")
        status, _doc, headers = _post(server.port, "/predict", {"rows": rows}, timeout=30)
        gate.release.set()
        for t in threads:
            t.join(30)
    assert status == 503
    headers = {k.lower(): v for k, v in headers.items()}
    assert "retry-after" in headers
    assert int(headers["retry-after"]) >= 1
    # Every admitted request was answered once the stall cleared.
    assert [s for s, _, _ in outcomes] == [200, 200]


def test_mid_flight_reload_never_tears_a_batch(
    tmp_path, trained_network, encoded_higgs
):
    """Hot-swap under concurrent load: zero failures, versions consistent.

    Clients hammer /predict while /reload swaps to a different model.
    Every response must be 200, must report either the old or the new
    version (never anything else), and its predictions must match what
    *that* version computes for the same rows — proving no batch was
    computed half-on-one-model, half-on-another.
    """
    variant = _train_variant(encoded_higgs, seed=40)
    variant_path = tmp_path / "variant.npz"
    save_network(variant, variant_path)

    runner = ModelRunner(trained_network, batch_size=64)
    server = PredictionServer(runner, port=0, batch_size=64, batch_deadline=0.002)
    rows = encoded_higgs["x_test"][:4]
    expected_v1 = trained_network.predict(rows).tolist()
    expected_v2 = variant.predict(rows).tolist()

    results = []
    lock = threading.Lock()
    stop = threading.Event()

    def client():
        while not stop.is_set():
            status, doc, _ = _post(server.port, "/predict", {"rows": rows.tolist()})
            with lock:
                results.append((status, doc))

    with ServerThread(server) as handle:
        v1 = runner.version
        threads = [threading.Thread(target=client) for _ in range(6)]
        for t in threads:
            t.start()
        wait_until(lambda: len(results) >= 12, "v1 has served traffic")
        status, doc, _ = _post(handle.port, "/reload", {"model": str(variant_path)})
        assert status == 200
        v2 = doc["model_version"]
        assert v2 == v1 + 1
        served = len(results)
        wait_until(lambda: len(results) >= served + 12, "v2 has served traffic")
        stop.set()
        for t in threads:
            t.join(30)

    assert len(results) > 10
    seen_versions = set()
    for status, doc in results:
        assert status == 200, doc  # zero failed requests across the swap
        version = doc["model_version"]
        seen_versions.add(version)
        assert version in (v1, v2)
        expected = expected_v1 if version == v1 else expected_v2
        assert doc["predictions"] == expected, (
            f"predictions inconsistent with reported version {version}"
        )
    # The swap actually happened mid-stream: both versions served traffic.
    assert seen_versions == {v1, v2}


def test_reload_bad_model_keeps_serving_old_version(
    tmp_path, trained_network, encoded_higgs
):
    """A failed reload is a 400 and the old model keeps answering."""
    bad_path = tmp_path / "bad.npz"
    bad_path.write_bytes(b"not an npz archive")
    runner = ModelRunner(trained_network, batch_size=32)
    server = PredictionServer(runner, port=0, batch_size=32, batch_deadline=0.002)
    rows = encoded_higgs["x_test"][:2]
    with ServerThread(server) as handle:
        v_before = runner.version
        status, doc, _ = _post(handle.port, "/reload", {"model": str(bad_path)})
        assert status == 400
        assert "unchanged" in doc["error"]
        # No default path configured and an empty body is also a 400.
        status, doc, _ = _post(handle.port, "/reload", b"")
        assert status == 400
        status, doc, _ = _post(handle.port, "/predict", {"rows": rows.tolist()})
        assert status == 200
        assert doc["model_version"] == v_before
    assert runner.version == v_before


def test_graceful_shutdown_drains_in_flight_requests(trained_network, encoded_higgs):
    """stop(drain=True) answers queued requests before sockets close."""
    runner = ModelRunner(trained_network, batch_size=64)
    # One request is held inside the dispatch and two more are parked behind
    # it when the drain begins, so their 200s prove the drain path.
    runner.run_batch = gate = GatedDispatch(runner.run_batch)
    server = PredictionServer(runner, port=0, batch_size=512, batch_deadline=60.0)
    rows = encoded_higgs["x_test"][:2]
    outcomes = []
    lock = threading.Lock()

    def client():
        status, doc, _ = _post(server.port, "/predict", {"rows": rows.tolist()}, timeout=30)
        with lock:
            outcomes.append((status, doc))

    handle = ServerThread(server)
    handle.__enter__()
    stopper = threading.Thread(target=handle.stop, kwargs={"drain": True})
    try:
        threads = [threading.Thread(target=client) for _ in range(3)]
        threads[0].start()
        assert gate.entered.wait(30.0)
        for t in threads[1:]:
            t.start()
        wait_until(lambda: server.batcher.queued_rows == 4, "two requests are parked")
        stopper.start()
        wait_until(lambda: server.batcher._closed, "the drain has begun")
    finally:
        gate.release.set()
        if stopper.ident is not None:
            stopper.join(60)
        handle.stop(drain=True)  # no-op once the stopper thread has finished
    for t in threads:
        t.join(30)
    assert len(outcomes) == 3
    expected = trained_network.predict(rows).tolist()
    for status, doc in outcomes:
        assert status == 200, doc
        assert doc["predictions"] == expected
    assert server.batcher.stats.flush_drain >= 1


class TestMalformedInput:
    @pytest.fixture()
    def handle(self, trained_network):
        runner = ModelRunner(trained_network, batch_size=32)
        server = PredictionServer(runner, port=0, batch_size=32, batch_deadline=0.002)
        with ServerThread(server) as h:
            yield h

    @pytest.mark.parametrize(
        "body",
        [
            b"{not json",
            b"[]",
            b'"just a string"',
            b"{}",
            b'{"rows": []}',
            b'{"rows": "nope"}',
            b'{"rows": [1, 2, 3]}',
            b'{"rows": [["a", "b"]]}',
            pytest.param(b'{"rows": ' + b"[" * 100_000 + b"]" * 100_000 + b"}", id="deep"),
            pytest.param(b'{"rows": [[' + b"9" * 400 + b"]]}", id="beyond-float64"),
        ],
    )
    def test_malformed_bodies_are_400(self, handle, body):
        status, doc, _ = _post(handle.port, "/predict", body)
        assert status == 400
        assert "error" in doc

    def test_wrong_feature_width_is_400(self, handle, trained_network):
        status, doc, _ = _post(handle.port, "/predict", {"rows": [[1.0, 2.0, 3.0]]})
        assert status == 400
        assert "features" in doc["error"]

    def test_non_finite_rows_are_400(self, handle, encoded_higgs):
        rows = encoded_higgs["x_test"][:1].tolist()
        rows[0][0] = float("nan")
        body = json.dumps({"rows": rows}).replace("NaN", "NaN")  # json allows NaN
        status, doc, _ = _post(handle.port, "/predict", body.encode())
        assert status == 400
        assert "NaN" in doc["error"]

    @pytest.mark.parametrize("entry, named", [("1", '"1"'), (True, "true"), (None, "null")])
    def test_non_number_entries_are_400_naming_them(self, handle, encoded_higgs, entry, named):
        rows = encoded_higgs["x_test"][:1].tolist()
        rows[0][0] = entry
        status, doc, _ = _post(handle.port, "/predict", {"rows": rows})
        assert status == 400
        assert f"found {named}" in doc["error"]

    def test_non_boolean_proba_is_400(self, handle, encoded_higgs):
        rows = encoded_higgs["x_test"][:1].tolist()
        status, doc, _ = _post(handle.port, "/predict", {"rows": rows, "proba": "false"})
        assert status == 400
        assert '"proba"' in doc["error"]

    def test_oversized_body_is_413(self, handle):
        # Claim an enormous body via Content-Length without sending it.
        conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=15)
        try:
            conn.putrequest("POST", "/predict")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", str(64 * 1024 * 1024))
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 413
        finally:
            conn.close()

    def test_server_still_alive_after_abuse(self, handle, trained_network, encoded_higgs):
        rows = encoded_higgs["x_test"][:1]
        status, doc, _ = _post(handle.port, "/predict", {"rows": rows.tolist()})
        assert status == 200
        assert doc["predictions"] == trained_network.predict(rows).tolist()


def test_reload_from_checkpoint_validates_checksum(
    tmp_path, trained_network, encoded_higgs
):
    """/reload accepts a training checkpoint — and its checksum gates the swap.

    A checkpoint directory carries a manifest; reload routes through
    :func:`repro.checkpoint.network_from_checkpoint`, so a corrupt archive
    is rejected with a 400 while the old model keeps serving, and a pristine
    one swaps in with predictions identical to the checkpointed network.
    """
    import shutil

    from repro.checkpoint import CheckpointManager, network_from_checkpoint

    ckpt_dir = tmp_path / "ckpt"
    variant = Network(seed=9, name="ckpt-variant")
    variant.add(
        StructuralPlasticityLayer(
            n_hypercolumns=2,
            n_minicolumns=30,
            hyperparams=BCPNNHyperParameters(taupdt=0.02, density=0.4),
            seed=10,
        )
    )
    variant.add(SGDClassifier(n_classes=2, learning_rate=0.1, seed=11))
    variant.fit(
        encoded_higgs["x_train"][:800],
        encoded_higgs["y_train"][:800],
        input_spec=encoded_higgs["spec"],
        schedule=TrainingSchedule(hidden_epochs=1, classifier_epochs=2, batch_size=128),
        checkpoint_dir=ckpt_dir,
    )
    latest = CheckpointManager(ckpt_dir).latest_path()

    corrupt_dir = tmp_path / "corrupt"
    shutil.copytree(ckpt_dir, corrupt_dir)
    corrupt_latest = corrupt_dir / latest.name
    blob = bytearray(corrupt_latest.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    corrupt_latest.write_bytes(bytes(blob))

    runner = ModelRunner(trained_network, batch_size=32)
    server = PredictionServer(runner, port=0, batch_size=32, batch_deadline=0.002)
    rows = encoded_higgs["x_test"][:4]
    with ServerThread(server) as handle:
        v_before = runner.version
        status, doc, _ = _post(
            handle.port, "/reload", {"model": str(corrupt_latest)}
        )
        assert status == 400
        assert "unchanged" in doc["error"]
        status, doc, _ = _post(handle.port, "/predict", {"rows": rows.tolist()})
        assert status == 200
        assert doc["model_version"] == v_before

        status, doc, _ = _post(handle.port, "/reload", {"model": str(latest)})
        assert status == 200
        status, doc, _ = _post(handle.port, "/predict", {"rows": rows.tolist()})
        assert status == 200
        assert doc["model_version"] == v_before + 1
        expected = network_from_checkpoint(latest).predict(rows).tolist()
        assert doc["predictions"] == expected
