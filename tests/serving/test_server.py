"""Online serving: micro-batcher coalescing and the HTTP endpoint.

Unit tests drive :class:`MicroBatcher` directly on an event loop (flush
reasons, admission control, timeouts, drain) with the dispatch gated on a
``threading.Event`` — "a dispatch is in flight" is a state the test holds,
never a race against a timer; integration tests run a real
:class:`PredictionServer` on an ephemeral port via :class:`ServerThread`
and speak plain ``http.client`` to it — predictions must round-trip
bit-identical to ``Network.predict`` on the same rows.
"""

from __future__ import annotations

import asyncio
import json
import http.client
import threading

import numpy as np
import pytest

from repro.serving import (
    BatchResult,
    MicroBatcher,
    ModelRunner,
    PredictionServer,
    QueueFullError,
    DeadlineExceededError,
    DispatchError,
    ServerThread,
    ServingClosedError,
)
from tests.serving.gates import GatedDispatch, wait_until


def _echo_dispatch(matrix):
    """A dispatch that 'predicts' each row's first feature (for tracing)."""
    predictions = matrix[:, 0].astype(int)
    proba = np.stack([1.0 - matrix[:, 0], matrix[:, 0]], axis=1)
    return BatchResult(predictions=predictions, probabilities=proba, model_version=1)


def _rows(values):
    return np.asarray([[float(v), 0.0] for v in values])


def run_async(coro):
    return asyncio.run(coro)


def _ids(gate):
    """What each dispatch behind ``gate`` saw, as the rows' integer ids."""
    return [matrix[:, 0].astype(int).tolist() for matrix in gate.batches]


async def _submit_all(batcher, requests):
    """Admit ``requests`` (in order) without awaiting their answers."""
    futures = [asyncio.ensure_future(batcher.submit(rows)) for rows in requests]
    await asyncio.sleep(0)  # one loop turn: every submit has run up to its await
    assert batcher.queued_rows == sum(len(rows) for rows in requests)
    return futures


class TestMicroBatcher:
    def test_lone_request_is_not_held_for_the_deadline(self):
        async def scenario():
            batcher = MicroBatcher(_echo_dispatch, batch_size=64, deadline=60.0)
            await batcher.start()
            # Nothing else is arriving and the worker is free: the request
            # must not be held for the (here minute-long) coalescing cap.
            result = await asyncio.wait_for(batcher.submit(_rows([7])), timeout=30.0)
            await batcher.drain()
            return result, batcher.stats

        result, stats = run_async(scenario())
        assert result.predictions.tolist() == [7]
        assert result.batch_rows == 1
        assert stats.flush_idle == 1
        assert stats.flush_deadline == 0
        assert stats.flush_full == 0

    def test_concurrent_requests_coalesce_into_one_batch(self):
        async def scenario():
            batcher = MicroBatcher(_echo_dispatch, batch_size=8, deadline=0.05)
            await batcher.start()
            results = await asyncio.gather(*(batcher.submit(_rows([i])) for i in range(8)))
            await batcher.drain()
            return results, batcher.stats

        results, stats = run_async(scenario())
        # 8 single-row requests at batch_size=8: one full flush, one dispatch.
        assert stats.batches == 1
        assert stats.flush_full == 1
        assert all(r.batch_rows == 8 for r in results)
        for i, r in enumerate(results):
            assert r.predictions.tolist() == [i]

    def test_multi_row_requests_are_never_split(self):
        async def scenario():
            batcher = MicroBatcher(_echo_dispatch, batch_size=4, deadline=0.05)
            await batcher.start()
            results = await asyncio.gather(
                batcher.submit(_rows([1, 2, 3])), batcher.submit(_rows([4, 5, 6]))
            )
            await batcher.drain()
            return results, batcher.stats

        results, stats = run_async(scenario())
        assert results[0].predictions.tolist() == [1, 2, 3]
        assert results[1].predictions.tolist() == [4, 5, 6]
        # 3+3 rows > batch_size=4, so the second request rode a second batch.
        assert stats.batches == 2

    def test_arrivals_during_a_dispatch_leave_as_one_batch(self):
        gate = GatedDispatch(_echo_dispatch)

        async def scenario():
            batcher = MicroBatcher(gate, batch_size=64, deadline=60.0)
            await batcher.start()
            first = asyncio.ensure_future(batcher.submit(_rows([0])))
            await gate.wait_entered()  # batch 1 is in flight and held
            later = await _submit_all(batcher, [_rows([i]) for i in range(1, 6)])
            gate.release.set()
            results = await asyncio.gather(first, *later)
            await batcher.drain()
            return results, batcher.stats

        results, stats = run_async(scenario())
        # Coalescing was free while the worker was busy: the five requests
        # ride ONE batch, in submission order, with no timer involved.
        assert _ids(gate) == [[0], [1, 2, 3, 4, 5]]
        assert [r.batch_rows for r in results] == [1, 5, 5, 5, 5, 5]
        assert [r.predictions.tolist() for r in results] == [[i] for i in range(6)]
        assert (stats.flush_idle, stats.flush_deadline, stats.flush_full) == (2, 0, 0)

    def test_next_batch_takes_whole_requests_up_to_batch_size(self):
        gate = GatedDispatch(_echo_dispatch)

        async def scenario():
            batcher = MicroBatcher(gate, batch_size=8, deadline=60.0)
            await batcher.start()
            first = asyncio.ensure_future(batcher.submit(_rows([0])))
            await gate.wait_entered()
            later = await _submit_all(
                batcher, [_rows([1, 2]), _rows([3, 4, 5]), _rows([6, 7]), _rows([8, 9, 10])]
            )
            gate.release.set()
            results = await asyncio.gather(first, *later)
            await batcher.drain()
            return results, batcher.stats

        results, stats = run_async(scenario())
        # 10 rows were queued: 2+3+2 fit batch_size=8, the last request does
        # not, and a request is never split across batches.
        assert _ids(gate) == [[0], [1, 2, 3, 4, 5, 6, 7], [8, 9, 10]]
        assert [r.batch_rows for r in results] == [1, 7, 7, 7, 3]
        assert stats.flush_full == 1

    def test_oversized_request_travels_alone(self):
        gate = GatedDispatch(_echo_dispatch)

        async def scenario():
            batcher = MicroBatcher(gate, batch_size=4, deadline=60.0)
            await batcher.start()
            first = asyncio.ensure_future(batcher.submit(_rows([0])))
            await gate.wait_entered()
            later = await _submit_all(batcher, [_rows(range(1, 7)), _rows([7])])
            gate.release.set()
            results = await asyncio.gather(first, *later)
            await batcher.drain()
            return results

        results = run_async(scenario())
        assert _ids(gate) == [[0], [1, 2, 3, 4, 5, 6], [7]]
        assert [r.batch_rows for r in results] == [1, 6, 1]

    def test_trickle_of_arrivals_cannot_hold_the_head_past_the_deadline(self):
        async def scenario():
            batcher = MicroBatcher(
                _echo_dispatch, batch_size=10**6, deadline=0.02, max_queue_rows=10**7
            )
            await batcher.start()
            head = asyncio.ensure_future(batcher.submit(_rows([0])))
            trickle = []
            # One new request every loop turn: each settle round sees an
            # arrival, the batch never fills, so ONLY the deadline cap can
            # release the head (ignore it and this loop spins until the
            # wait_for below fails the test).
            while not head.done():
                trickle.append(asyncio.ensure_future(batcher.submit(_rows([1]))))
                await asyncio.sleep(0)
            answers = await asyncio.gather(head, *trickle)
            await batcher.drain()
            return answers, batcher.stats

        answers, stats = run_async(asyncio.wait_for(scenario(), timeout=30.0))
        assert stats.flush_deadline >= 1
        assert stats.flush_full == 0
        assert answers[0].predictions.tolist() == [0]
        assert 1 < answers[0].batch_rows < len(answers)

    def test_queue_full_rejects_with_retry_after(self):
        gate = GatedDispatch(_echo_dispatch)

        async def scenario():
            batcher = MicroBatcher(gate, batch_size=2, deadline=0.001, max_queue_rows=4)
            await batcher.start()
            first = asyncio.ensure_future(batcher.submit(_rows([1, 2])))
            await gate.wait_entered()  # first batch now blocked in dispatch
            (second,) = await _submit_all(batcher, [_rows([3, 4, 5, 6])])  # the bound
            with pytest.raises(QueueFullError) as excinfo:
                await batcher.submit(_rows([7]))
            gate.release.set()
            results = await asyncio.gather(first, second)
            await batcher.drain()
            return excinfo.value, results, batcher.stats

        error, results, stats = run_async(scenario())
        assert error.retry_after >= 1
        assert stats.rejected == 1
        # The admitted requests were still answered after the stall cleared.
        assert results[0].predictions.tolist() == [1, 2]
        assert results[1].predictions.tolist() == [3, 4, 5, 6]

    def test_retry_after_follows_the_measured_dispatch_time(self):
        async def scenario():
            batcher = MicroBatcher(_echo_dispatch, batch_size=2, max_queue_rows=4)
            await batcher.start()
            await batcher.submit(_rows([1]))
            # Pretend the one dispatch so far took 2.5 s: a 5-row request is
            # a 3-batch backlog at batch_size=2, so "retry in ceil(7.5) s".
            batcher.stats.dispatch_seconds = 2.5
            with pytest.raises(QueueFullError) as excinfo:
                await batcher.submit(_rows([1, 2, 3, 4, 5]))
            await batcher.drain()
            return excinfo.value

        assert run_async(scenario()).retry_after == 8

    def test_request_timeout_raises_deadline_exceeded(self):
        gate = GatedDispatch(_echo_dispatch)

        async def scenario():
            batcher = MicroBatcher(gate, batch_size=2, deadline=0.001, request_timeout=0.05)
            await batcher.start()
            in_flight = asyncio.ensure_future(batcher.submit(_rows([1])))
            await gate.wait_entered()
            (queued,) = await _submit_all(batcher, [_rows([2])])
            outcomes = await asyncio.gather(in_flight, queued, return_exceptions=True)
            gate.release.set()
            served = await batcher.submit(_rows([3]))
            await batcher.drain()
            return outcomes, served, batcher.stats

        outcomes, served, stats = run_async(scenario())
        assert all(isinstance(o, DeadlineExceededError) for o in outcomes)
        assert stats.timeouts == 2
        # The abandoned queued request never reached a dispatch.
        assert _ids(gate) == [[1], [3]]
        assert served.predictions.tolist() == [3]

    def test_dispatch_failure_raises_dispatch_error_to_all_waiters(self):
        def broken_dispatch(matrix):
            raise ValueError("kaboom")

        async def scenario():
            batcher = MicroBatcher(broken_dispatch, batch_size=4, deadline=0.01)
            await batcher.start()
            results = await asyncio.gather(
                batcher.submit(_rows([1])),
                batcher.submit(_rows([2])),
                return_exceptions=True,
            )
            await batcher.drain()
            return results, batcher.stats

        results, stats = run_async(scenario())
        assert all(isinstance(r, DispatchError) for r in results)
        assert all("kaboom" in str(r) for r in results)
        assert stats.dispatch_errors == 1

    def test_drain_answers_queued_requests_then_refuses_new_ones(self):
        gate = GatedDispatch(_echo_dispatch)

        async def scenario():
            batcher = MicroBatcher(gate, batch_size=2, deadline=60.0)
            await batcher.start()
            in_flight = asyncio.ensure_future(batcher.submit(_rows([0])))
            await gate.wait_entered()
            queued = await _submit_all(batcher, [_rows([i]) for i in range(1, 4)])
            # Drain begins with one batch in flight and three requests queued.
            draining = asyncio.ensure_future(batcher.drain())
            await asyncio.sleep(0)
            with pytest.raises(ServingClosedError):
                await batcher.submit(_rows([9]))
            gate.release.set()
            await draining
            answered = await asyncio.gather(in_flight, *queued)
            return answered, batcher.stats

        answered, stats = run_async(scenario())
        assert [r.predictions.tolist() for r in answered] == [[0], [1], [2], [3]]
        assert _ids(gate) == [[0], [1, 2], [3]]
        assert stats.flush_drain >= 1

    def test_submit_before_start_is_refused(self):
        async def scenario():
            batcher = MicroBatcher(_echo_dispatch)
            with pytest.raises(ServingClosedError):
                await batcher.submit(_rows([1]))

        run_async(scenario())

    def test_invalid_config_rejected(self):
        with pytest.raises(Exception):
            MicroBatcher(_echo_dispatch, batch_size=0)
        with pytest.raises(ValueError):
            MicroBatcher(_echo_dispatch, deadline=0.0)
        with pytest.raises(ValueError):
            MicroBatcher(_echo_dispatch, request_timeout=-1.0)


# ---------------------------------------------------------------- HTTP level


@pytest.fixture(scope="module")
def live_server(trained_network):
    runner = ModelRunner(trained_network, batch_size=64)
    server = PredictionServer(runner, port=0, batch_size=64, batch_deadline=0.003)
    with ServerThread(server) as handle:
        yield handle


def _request(handle, method, path, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=15)
    try:
        payload = json.dumps(body).encode("utf-8") if body is not None else None
        conn.request(method, path, body=payload, headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"{}"), dict(
            response.getheaders()
        )
    finally:
        conn.close()


class TestPredictionServer:
    def test_healthz(self, live_server):
        status, doc, _ = _request(live_server, "GET", "/healthz")
        assert status == 200
        assert doc["status"] == "ok"
        assert doc["model_version"] >= 1

    def test_predict_matches_bulk_predict(self, live_server, trained_network, encoded_higgs):
        rows = encoded_higgs["x_test"][:5]
        status, doc, _ = _request(live_server, "POST", "/predict", {"rows": rows.tolist()})
        assert status == 200
        assert doc["predictions"] == trained_network.predict(rows).tolist()
        assert doc["batch_rows"] >= 5

    def test_predict_proba_matches_bulk(self, live_server, trained_network, encoded_higgs):
        rows = encoded_higgs["x_test"][5:8]
        status, doc, _ = _request(
            live_server, "POST", "/predict", {"rows": rows.tolist(), "proba": True}
        )
        assert status == 200
        expected = trained_network.predict_proba(rows)
        np.testing.assert_allclose(np.asarray(doc["probabilities"]), expected, atol=1e-9)

    def test_concurrent_requests_coalesce(self, trained_network, encoded_higgs):
        """Single-row POSTs that arrive during a dispatch share ONE micro-batch."""
        rows = encoded_higgs["x_test"][:24]
        expected = trained_network.predict(rows).tolist()
        outcomes = [None] * len(rows)
        runner = ModelRunner(trained_network, batch_size=64)
        runner.run_batch = gate = GatedDispatch(runner.run_batch)
        server = PredictionServer(runner, port=0, batch_size=64, batch_deadline=60.0)

        def worker(i):
            outcomes[i] = _request(handle, "POST", "/predict", {"rows": [rows[i].tolist()]})

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(rows))]
        with ServerThread(server) as handle:
            threads[0].start()
            assert gate.entered.wait(30.0)  # request 0 is in flight and held
            for t in threads[1:]:
                t.start()
            wait_until(lambda: server.batcher.queued_rows == 23, "23 requests are queued")
            gate.release.set()
            for t in threads:
                t.join(30)
        for i, (status, doc, _) in enumerate(outcomes):
            assert status == 200
            assert doc["predictions"] == [expected[i]]
        # Coalescing is free while the worker is busy: no timer was involved
        # (the cap is a minute) and the 23 later requests left together.
        assert [doc["batch_rows"] for _, doc, _ in outcomes] == [1] + [23] * 23

    def test_metrics_endpoint(self, live_server):
        status, doc, _ = _request(live_server, "GET", "/metrics")
        assert status == 200
        assert doc["batcher"]["batches"] >= 1
        assert doc["batcher"]["mean_batch_rows"] > 0
        assert "/predict" in doc["requests_by_endpoint"]
        assert doc["model_version"] >= 1
        assert doc["draining"] is False
        assert "predict_latency_ms" in doc

    def test_unknown_endpoint_404(self, live_server):
        status, doc, _ = _request(live_server, "GET", "/nope")
        assert status == 404

    def test_wrong_method_405(self, live_server):
        status, doc, _ = _request(live_server, "GET", "/predict")
        assert status == 405
        status, doc, _ = _request(live_server, "POST", "/healthz")
        assert status == 405


class TestPredictOverrides:
    """Per-request ``"backend"`` overrides on POST /predict."""

    def test_backend_override_matches_default(self, live_server, trained_network, encoded_higgs):
        rows = encoded_higgs["x_test"][:4]
        _, base, _ = _request(
            live_server, "POST", "/predict", {"rows": rows.tolist(), "proba": True}
        )
        status, doc, _ = _request(
            live_server,
            "POST",
            "/predict",
            {"rows": rows.tolist(), "proba": True, "backend": "numpy"},
        )
        assert status == 200
        np.testing.assert_allclose(doc["probabilities"], base["probabilities"], atol=1e-12)

    @pytest.mark.parametrize("value", ["on", "off", "maybe"])
    def test_sparse_key_is_ignored(self, live_server, trained_network, encoded_higgs, value):
        """``"sparse"`` is no longer an override: like any unknown key it is
        ignored and the request takes the default, coalescing path."""
        runner = live_server.server.runner
        runner.swap(trained_network)  # start from an empty override cache
        rows = encoded_higgs["x_test"][:4]
        _, base, _ = _request(
            live_server, "POST", "/predict", {"rows": rows.tolist(), "proba": True}
        )
        status, doc, _ = _request(
            live_server,
            "POST",
            "/predict",
            {"rows": rows.tolist(), "proba": True, "sparse": value},
        )
        assert status == 200
        assert doc["probabilities"] == base["probabilities"]
        assert runner._override_predictors == {}

    @pytest.mark.parametrize(
        "name", ["warp-drive", "parallel", "distributed", "openmp", "mpi", "fpga"]
    )
    def test_unknown_backend_400(self, live_server, encoded_higgs, name):
        rows = encoded_higgs["x_test"][:1]
        status, doc, _ = _request(
            live_server, "POST", "/predict", {"rows": rows.tolist(), "backend": name}
        )
        assert status == 400
        assert "unknown" in doc["error"] and repr(name) in doc["error"]
        assert "float16, float32, numpy, posit16" in doc["error"]

    def test_override_predictors_cached_and_invalidated_on_swap(
        self, live_server, trained_network, encoded_higgs
    ):
        runner = live_server.server.runner
        runner.swap(trained_network)  # start from an empty override cache
        rows = encoded_higgs["x_test"][:1]
        for body in (
            {"rows": rows.tolist(), "backend": "numpy"},
            {"rows": rows.tolist(), "backend": "numpy"},
            {"rows": rows.tolist(), "backend": "float32"},
        ):
            status, _, _ = _request(live_server, "POST", "/predict", body)
            assert status == 200
        assert set(runner._override_predictors) == {"numpy", "float32"}
        runner.swap(trained_network)
        assert runner._override_predictors == {}


class TestCLIServe:
    def test_main_serve_starts_and_answers(self, tmp_path, trained_network, encoded_higgs):
        """`repro serve` end to end: save, serve on an ephemeral port, POST."""
        from repro.cli import main_serve
        from repro.core import save_network
        from repro.serving.server import wait_until_listening

        model_path = tmp_path / "model.npz"
        save_network(trained_network, model_path)
        # Pre-bind an ephemeral port so the test knows where to connect.
        import socket

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        thread = threading.Thread(
            target=main_serve,
            args=(
                [
                    "--model",
                    str(model_path),
                    "--port",
                    str(port),
                    "--batch-deadline-ms",
                    "2",
                    "--quiet",
                ],
            ),
            daemon=True,
        )
        thread.start()
        wait_until_listening("127.0.0.1", port, timeout=30.0)
        rows = encoded_higgs["x_test"][:3]
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=15)
        try:
            conn.request(
                "POST",
                "/predict",
                body=json.dumps({"rows": rows.tolist()}).encode(),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            doc = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 200
        assert doc["predictions"] == trained_network.predict(rows).tolist()

    @pytest.mark.parametrize(
        "flag,value", [("--batch-deadline-ms", "0"), ("--request-timeout-ms", "-5")]
    )
    def test_bad_deadline_exits_2_without_a_traceback(
        self, tmp_path, trained_network, capsys, flag, value
    ):
        from repro.cli import main
        from repro.core import save_network

        model_path = save_network(trained_network, tmp_path / "model.npz")
        code = main(["serve", "--model", str(model_path), "--port", "0", flag, value, "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "must be positive" in err
        assert "Traceback" not in err

    def test_serving_runs_in_the_server_process_only(self, trained_network, capsys):
        """One inference path: no rank-sharded serving behind the endpoint."""
        from repro.cli import main_serve

        with pytest.raises(SystemExit) as exit_info:
            main_serve(["--model", "model.npz", "--comm", "process:2"])
        assert exit_info.value.code == 2
        assert "--comm" in capsys.readouterr().err
        with pytest.raises(TypeError, match="comm"):
            ModelRunner(trained_network, batch_size=64, comm="thread:2")
