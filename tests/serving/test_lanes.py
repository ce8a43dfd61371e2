"""Tile lanes of ``predict_stream``: one lane per core the BLAS pool leaves free.

The lane count is forced by monkeypatching the rule, so these tests run the
lanes whatever the machine's BLAS pool is.  Tile boundaries do not depend on
the lane count, so every label and probability must be bitwise equal to the
one-lane result.
"""

import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import repro.serving.predictor as predictor_module
from repro.backend import NumpyBackend
from repro.datasets.stream import BatchStream
from repro.serving import StreamingPredictor

LANE_THREAD = "repro-predict-lane"


def _force_lanes(monkeypatch, n_lanes):
    monkeypatch.setattr(predictor_module, "_lane_count", lambda: n_lanes)


def _lane_threads():
    return [thread for thread in threading.enumerate() if thread.name == LANE_THREAD]


@pytest.fixture(scope="module", params=["sgd", "bcpnn"])
def stacked_network(request, encoded_higgs):
    """Two hidden layers (sparse at density 0.3, dense at 1.0) under either head."""
    from repro.core import (
        BCPNNClassifier,
        Network,
        SGDClassifier,
        StructuralPlasticityLayer,
        TrainingSchedule,
    )

    network = Network(seed=5)
    network.add(StructuralPlasticityLayer(3, 12, density=0.3, seed=6))
    network.add(StructuralPlasticityLayer(2, 8, density=1.0, seed=7))
    if request.param == "sgd":
        network.add(SGDClassifier(n_classes=2, seed=8))
    else:
        network.add(BCPNNClassifier(n_classes=2))
    network.fit(
        encoded_higgs["x_train"][:512],
        encoded_higgs["y_train"][:512],
        input_spec=encoded_higgs["spec"],
        schedule=TrainingSchedule(hidden_epochs=1, classifier_epochs=1, batch_size=128),
    )
    assert network.hidden_layers[0].sparse_active
    assert not network.hidden_layers[1].sparse_active
    return network


def _both_outputs(predictor, source_factory):
    return (
        predictor.predict_stream(source_factory()),
        predictor.predict_proba_stream(source_factory()),
    )


@pytest.mark.parametrize("n_lanes", [2, 3])
class TestLanesEqualOneLane:
    def _check(self, monkeypatch, network, n_lanes, source_factory, batch_size=64, backend=None):
        _force_lanes(monkeypatch, 1)
        expected = _both_outputs(
            StreamingPredictor(network, batch_size=batch_size, backend=backend), source_factory
        )
        _force_lanes(monkeypatch, n_lanes)
        predictor = StreamingPredictor(network, batch_size=batch_size, backend=backend)
        for _ in range(2):  # second call: the helper lanes' engines are reused
            labels, proba = _both_outputs(predictor, source_factory)
            assert np.array_equal(labels, expected[0])
            assert np.array_equal(proba, expected[1])
        assert len(predictor._lanes) == n_lanes

    def test_remainder_tile(self, monkeypatch, stacked_network, encoded_higgs, n_lanes):
        x = encoded_higgs["x_test"][:300]  # 4 x 64 + 44
        self._check(monkeypatch, stacked_network, n_lanes, lambda: x)

    def test_shuffled_prefetching_stream(
        self, monkeypatch, stacked_network, encoded_higgs, n_lanes
    ):
        x = encoded_higgs["x_test"]

        def stream():
            return BatchStream(x, batch_size=77, shuffle=True, rng=7, prefetch=2)

        self._check(monkeypatch, stacked_network, n_lanes, stream)

    @pytest.mark.parametrize("dtype", [np.uint8, np.float32])
    def test_compact_rows(self, monkeypatch, stacked_network, encoded_higgs, n_lanes, dtype):
        x = encoded_higgs["x_test"].astype(dtype)
        self._check(monkeypatch, stacked_network, n_lanes, lambda: x)

    def test_single_layer_fixture_network(
        self, monkeypatch, trained_network, encoded_higgs, n_lanes
    ):
        x = encoded_higgs["x_test"]
        self._check(monkeypatch, trained_network, n_lanes, lambda: x, batch_size=100)

    @pytest.mark.parametrize("backend", ["float32", "posit16"])
    def test_backend_override(self, monkeypatch, stacked_network, encoded_higgs, n_lanes, backend):
        x = encoded_higgs["x_test"][:400]
        self._check(monkeypatch, stacked_network, n_lanes, lambda: x, backend=backend)

    def test_network_facade(self, monkeypatch, stacked_network, encoded_higgs, n_lanes):
        x = encoded_higgs["x_test"]
        _force_lanes(monkeypatch, 1)
        stacked_network._serving_predictor = None
        expected = stacked_network.predict_proba_stream(x, batch_size=50)
        _force_lanes(monkeypatch, n_lanes)
        stacked_network._serving_predictor = None
        assert np.array_equal(stacked_network.predict_proba_stream(x, batch_size=50), expected)
        assert np.array_equal(
            stacked_network.predict_stream(x, batch_size=50), np.argmax(expected, axis=1)
        )


class TestLaneThreads:
    def test_one_tile_starts_no_thread(self, monkeypatch, trained_network, encoded_higgs):
        _force_lanes(monkeypatch, 2)
        started = []

        class CountingThread(threading.Thread):
            def start(self):
                started.append(self.name)
                super().start()

        monkeypatch.setattr(predictor_module.threading, "Thread", CountingThread)
        predictor = StreamingPredictor(trained_network, batch_size=64)
        predictor.predict_proba_stream(encoded_higgs["x_test"][:64])
        predictor.predict_stream(encoded_higgs["x_test"][:1])
        assert started == []
        assert len(predictor._lanes) == 1
        predictor.predict_stream(encoded_higgs["x_test"][:65])
        assert started == [LANE_THREAD]
        assert _lane_threads() == []

    def test_stream_iterator_without_close(self, monkeypatch, trained_network, encoded_higgs):
        """A wrapped stream iterator (a profiler's timing wrapper) need not
        be a generator."""
        _force_lanes(monkeypatch, 2)
        original = BatchStream.__iter__

        class Wrapped:
            def __init__(self, iterator):
                self._iterator = iterator

            def __iter__(self):
                return self

            def __next__(self):
                return next(self._iterator)

        monkeypatch.setattr(BatchStream, "__iter__", lambda stream: Wrapped(original(stream)))
        x = encoded_higgs["x_test"]
        predictor = StreamingPredictor(trained_network, batch_size=64)
        assert np.array_equal(predictor.predict_stream(x), trained_network.predict(x))

    def test_forward_calls_count_each_tile_once(self, monkeypatch, stacked_network, encoded_higgs):
        """More lanes than cores share one backend; a lost counter update
        would show at a short switch interval."""
        _force_lanes(monkeypatch, 5)
        backend = NumpyBackend()
        predictor = StreamingPredictor(stacked_network, batch_size=8, backend=backend)
        x = np.vstack([encoded_higgs["x_test"]] * 2)  # 1200 rows: 150 tiles
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            predictor.predict_stream(x)
        finally:
            sys.setswitchinterval(interval)
        assert _lane_threads() == []
        n_tiles = -(-x.shape[0] // 8)
        n_layers = len(stacked_network.hidden_layers)
        assert backend.stats.forward_calls == n_tiles * n_layers
        units = sum(layer.n_hidden_units for layer in stacked_network.hidden_layers)
        assert backend.stats.elements_processed == x.shape[0] * units


class TestLaneFailure:
    def test_helper_lane_failure_surfaces_in_the_caller(
        self, monkeypatch, trained_network, encoded_higgs
    ):
        """A tile that raises on a helper lane: the caller sees the same
        exception type, no lane thread outlives the call, and the predictor
        keeps working."""
        _force_lanes(monkeypatch, 2)
        x = encoded_higgs["x_test"]
        predictor = StreamingPredictor(trained_network, batch_size=32)
        expected = trained_network.predict(x)
        head = trained_network.head
        original = head.decision_function
        armed = [True]
        helper_failed = threading.Event()

        def failing(hidden):
            if not armed[0]:
                return original(hidden)
            if threading.current_thread() is threading.main_thread():
                # Lane 0 waits until a helper lane has failed, so the helper
                # is sure to run (and fail) a tile.
                helper_failed.wait(timeout=30)
                return original(hidden)
            helper_failed.set()
            raise KeyError("tile failed on a helper lane")

        monkeypatch.setattr(head, "decision_function", failing)
        with pytest.raises(KeyError, match="helper lane"):
            predictor.predict_stream(x)
        assert helper_failed.is_set()
        assert _lane_threads() == []
        armed[0] = False
        assert np.array_equal(predictor.predict_stream(x), expected)

    def test_third_tile_failure_stops_every_lane(self, monkeypatch, trained_network, encoded_higgs):
        _force_lanes(monkeypatch, 2)
        x = encoded_higgs["x_test"]  # 600 rows: 19 tiles of 32
        predictor = StreamingPredictor(trained_network, batch_size=32)
        head = trained_network.head
        original = head.decision_function
        lock = threading.Lock()
        calls = []

        def failing(hidden):
            with lock:
                calls.append(hidden.shape[0])
                if len(calls) == 3:
                    raise ValueError("tile 3 failed")
            return original(hidden)

        expected = StreamingPredictor(trained_network, batch_size=32).predict_proba_stream(x)

        monkeypatch.setattr(head, "decision_function", failing)
        stream = BatchStream(x, batch_size=32, prefetch=2)
        with pytest.raises(ValueError, match="tile 3"):
            predictor.predict_proba_stream(stream)
        # Each lane stops at its next tile: at most one more tile per lane.
        assert len(calls) <= 3 + 2
        assert _lane_threads() == []
        assert not [t for t in threading.enumerate() if t.name == "repro-batch-prefetch"]
        assert np.array_equal(predictor.predict_proba_stream(x), expected)


class TestLaneRule:
    @pytest.mark.parametrize(
        "cores,blas,lanes", [(2, 1, 2), (2, 2, 1), (1, 1, 1), (4, 2, 2), (8, 1, 2), (64, 1, 2)]
    )
    def test_one_lane_per_pool_of_cores(self, cores, blas, lanes):
        assert predictor_module._lanes_for(cores, blas) == lanes

    def test_unknown_blas_runs_one_lane(self, monkeypatch):
        import glob

        assert predictor_module._lanes_for(8, 0) == 1
        monkeypatch.setattr(predictor_module, "_blas_threads", None)
        monkeypatch.setattr(glob, "glob", lambda pattern: [])
        assert predictor_module._openblas_threads() == 0
        assert predictor_module._lane_count() == 1

    def test_library_without_the_symbol_reads_as_unknown(self, monkeypatch):
        import ctypes

        monkeypatch.setattr(ctypes, "CDLL", lambda path: object())
        assert predictor_module._openblas_threads() == 0

    def test_probe_runs_once_at_the_first_multi_tile_call(
        self, monkeypatch, trained_network, encoded_higgs
    ):
        calls = []

        def probe():
            calls.append(1)
            return 1

        monkeypatch.setattr(predictor_module, "_blas_threads", None)
        monkeypatch.setattr(predictor_module, "_openblas_threads", probe)
        predictor = StreamingPredictor(trained_network, batch_size=64)
        x = encoded_higgs["x_test"]
        predictor.predict_stream(x[:64])
        assert calls == []
        predictor.predict_stream(x)
        predictor.predict_proba_stream(x)
        StreamingPredictor(trained_network, batch_size=64).predict_stream(x)
        assert calls == [1]

    def test_import_does_not_probe(self):
        code = (
            "import repro.serving.predictor as p\n"
            "assert p._blas_threads is None\n"
            "print('ok')"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "ok"

    @pytest.mark.skipif(
        os.environ.get("OPENBLAS_NUM_THREADS") != "1"
        or len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
        reason="needs OPENBLAS_NUM_THREADS=1 and two cores",
    )
    def test_real_rule_takes_two_lanes_under_the_pin(self, monkeypatch):
        monkeypatch.setattr(predictor_module, "_blas_threads", None)
        assert predictor_module._openblas_threads() == 1
        assert predictor_module._lane_count() == 2

    def test_openblas_pool_is_read_not_set(self):
        first = predictor_module._openblas_threads()
        assert first >= 0
        assert predictor_module._openblas_threads() == first
