"""Tests for the pipelined training engine.

Covers the overlap scheduler (:class:`PipelineWorker`), the engine's
double-buffered workspace ring (aliasing regression: batch ``k+1``'s
dispatch must never clobber batch ``k``'s returned view), the stale-weights
caching accounting, and the masked-weights product cache.
"""

import os

import numpy as np
import pytest

from repro.backend import get_backend
from repro.core import BCPNNHyperParameters, InputSpec, StructuralPlasticityLayer
from repro.datasets.stream import BatchStream
from repro.engine import (
    ExecutionPlan,
    LayerEngine,
    PipelineWorker,
    mean_activation_entropy,
    train_layer_pipelined,
)
from repro.engine.pipeline import helper_threads_available
from repro.exceptions import BackendError, ConfigurationError


def _one_hot(n, sizes, seed=0):
    rng = np.random.default_rng(seed)
    x = np.zeros((n, int(sum(sizes))))
    offset = 0
    for size in sizes:
        winners = rng.integers(0, size, size=n)
        x[np.arange(n), offset + winners] = 1.0
        offset += size
    return x


def _built_layer(seed=3, tol=0.0, n_buffers=1):
    layer = StructuralPlasticityLayer(
        2,
        6,
        hyperparams=BCPNNHyperParameters(taupdt=0.05, density=0.6, competition="softmax"),
        seed=seed,
    )
    layer.build(InputSpec([4, 4, 4]))
    layer.configure_execution(n_buffers=n_buffers, weight_refresh_tol=tol)
    return layer


class TestPipelineWorker:
    def test_runs_tasks_in_fifo_order(self):
        seen = []
        with PipelineWorker() as worker:
            tasks = [worker.submit(lambda i=i: seen.append(i) or i) for i in range(20)]
            results = [t.result() for t in tasks]
        assert results == list(range(20))
        assert seen == list(range(20))

    def test_propagates_exceptions_through_result(self):
        def boom():
            raise ValueError("worker exploded")

        with PipelineWorker() as worker:
            task = worker.submit(boom)
            healthy = worker.submit(lambda: 42)
            with pytest.raises(ValueError, match="worker exploded"):
                task.result()
            # A failed task must not wedge the worker.
            assert healthy.result() == 42

    def test_close_is_idempotent_and_rejects_new_work(self):
        worker = PipelineWorker()
        assert worker.submit(lambda: 1).result() == 1
        worker.close()
        worker.close()
        with pytest.raises(BackendError):
            worker.submit(lambda: 2)


class TestHelperThreadsAvailable:
    """The predicate counts the CPUs this process may run on."""

    def test_one_cpu_affinity_means_no_helper_threads(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert helper_threads_available() is False

    def test_two_cpu_affinity_means_helper_threads(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert helper_threads_available() is True

    def test_falls_back_to_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert helper_threads_available() is False
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert helper_threads_available() is True


class TestDoubleBuffering:
    def _engine(self, n_buffers):
        return LayerEngine(
            get_backend("numpy"), ExecutionPlan(12, (6, 6), 32), n_buffers=n_buffers
        )

    def test_rejects_invalid_options(self):
        backend = get_backend("numpy")
        plan = ExecutionPlan(12, (6, 6), 32)
        with pytest.raises(ConfigurationError):
            LayerEngine(backend, plan, n_buffers=0)
        with pytest.raises(ConfigurationError):
            LayerEngine(backend, plan, weight_refresh_tol=-0.1)

    def test_single_buffer_reuses_one_workspace(self):
        engine = self._engine(1)
        rng = np.random.default_rng(0)
        x = _one_hot(16, [4, 4, 4])
        w = rng.normal(size=(12, 12))
        b = rng.normal(size=12)
        first = engine.forward(x, w, b, None)
        second = engine.forward(x, w, b, None)
        assert np.shares_memory(first, second)  # same workspace buffer

    def test_double_buffer_alternates_and_preserves_previous_batch(self):
        """Aliasing regression: batch k+1 writes never reach batch k's view."""
        engine = self._engine(2)
        rng = np.random.default_rng(0)
        w = rng.normal(size=(12, 12))
        b = rng.normal(size=12)
        x_a = _one_hot(16, [4, 4, 4], seed=1)
        x_b = _one_hot(16, [4, 4, 4], seed=2)
        out_a = engine.forward(x_a, w, b, None)
        snapshot_a = out_a.copy()
        out_b = engine.forward(x_b, w, b, None)
        assert not np.shares_memory(out_a, out_b)
        assert np.array_equal(out_a, snapshot_a)  # batch k intact after k+1
        # The third dispatch wraps around onto the first workspace.
        out_c = engine.forward(x_a, w, b, None)
        assert np.shares_memory(out_a, out_c)
        assert engine.workspace_nbytes() == sum(ws.nbytes() for ws in engine.workspaces)

    def test_triple_buffer_keeps_two_batches_in_flight(self):
        """n_buffers=3 (deep-stack second in-flight batch): batches k and k+1
        both survive batch k+2's dispatch; wrap-around hits workspace 0 on
        the fourth dispatch."""
        engine = self._engine(3)
        assert len(engine.workspaces) == 3
        rng = np.random.default_rng(0)
        w = rng.normal(size=(12, 12))
        b = rng.normal(size=12)
        batches = [_one_hot(16, [4, 4, 4], seed=s) for s in (1, 2, 3, 4)]
        out_a = engine.forward(batches[0], w, b, None)
        snap_a = out_a.copy()
        out_b = engine.forward(batches[1], w, b, None)
        snap_b = out_b.copy()
        out_c = engine.forward(batches[2], w, b, None)
        # Three distinct workspaces; the two previous batches stay intact.
        assert not np.shares_memory(out_a, out_b)
        assert not np.shares_memory(out_b, out_c)
        assert not np.shares_memory(out_a, out_c)
        assert np.array_equal(out_a, snap_a)
        assert np.array_equal(out_b, snap_b)
        # Fourth dispatch wraps around onto the first workspace; batch k+1's
        # and k+2's views remain untouched.
        out_d = engine.forward(batches[3], w, b, None)
        assert np.shares_memory(out_a, out_d)
        assert np.array_equal(out_b, snap_b)
        assert engine.workspace_nbytes() == sum(ws.nbytes() for ws in engine.workspaces)

    def test_triple_buffer_training_matches_single_buffer(self):
        """The ring depth is a scheduling choice: identical results at n=3."""
        from repro.core import BCPNNHyperParameters, InputSpec, StructuralPlasticityLayer

        def run(n_buffers):
            layer = StructuralPlasticityLayer(
                2, 6,
                hyperparams=BCPNNHyperParameters(
                    taupdt=0.05, density=0.5, competition="softmax"
                ),
                seed=9,
            )
            layer.build(InputSpec([4, 4, 4]))
            layer.configure_execution(n_buffers=n_buffers)
            x = _one_hot(96, [4, 4, 4], seed=3)
            for lo in range(0, 96, 32):
                layer.train_batch(x[lo : lo + 32])
            return layer

        reference = run(1)
        triple = run(3)
        np.testing.assert_array_equal(reference.traces.p_ij, triple.traces.p_ij)
        np.testing.assert_array_equal(reference.weights, triple.weights)


class _CountingTraces:
    def __init__(self, n_input, n_hidden):
        self.p_i = np.full(n_input, 1.0 / n_input)
        self.p_j = np.full(n_hidden, 1.0 / n_hidden)
        self.p_ij = np.outer(self.p_i, self.p_j)
        self.updates_seen = 0


class TestStaleWeights:
    def test_tol_zero_always_requests_refresh(self):
        layer = _built_layer(tol=0.0)
        x = _one_hot(64, [4, 4, 4], seed=5)
        before = layer.backend.stats.weight_updates
        for _ in range(6):
            layer.train_batch(x)
        # One refresh per batch plus the first-batch calibration refresh.
        assert layer.backend.stats.weight_updates - before == 7
        assert not layer.engine_for(64).weights_stale

    def test_tol_positive_skips_refreshes_and_flush_settles(self):
        exact = _built_layer(seed=9, tol=0.0)
        stale = _built_layer(seed=9, tol=1e9)  # never refresh mid-training
        x = _one_hot(64, [4, 4, 4], seed=5)
        before = stale.backend.stats.weight_updates
        for _ in range(6):
            exact.train_batch(x)
            stale.train_batch(x)
        # Only the first-batch refreshes happened on the stale side: the
        # marginal calibration plus the freshly built engine's forced
        # initial refresh.  Every later batch skipped.
        assert stale.backend.stats.weight_updates - before == 2
        assert stale._engine.weights_stale
        stale.flush_weights()
        assert not stale._engine.weights_stale
        # Stale forwards perturb the competition slightly, so the traces are
        # approximately (not bitwise) those of exact training ...
        np.testing.assert_allclose(stale.traces.p_ij, exact.traces.p_ij, atol=2e-2)
        # ... but after the flush the weights must be exactly consistent
        # with the stale layer's own traces.
        from repro import kernels

        expected_w, expected_b = kernels.traces_to_weights(
            stale.traces.p_i, stale.traces.p_j, stale.traces.p_ij, stale._trace_floor
        )
        np.testing.assert_array_equal(stale.weights, expected_w)
        np.testing.assert_array_equal(stale.bias, expected_b)
        # Flushing again is a no-op.
        count = stale.backend.stats.weight_updates
        stale.flush_weights()
        assert stale.backend.stats.weight_updates == count

    def test_staleness_accumulates_and_triggers_refresh(self):
        backend = get_backend("numpy")
        engine = LayerEngine(
            backend, ExecutionPlan(12, (12,), 32), weight_refresh_tol=0.5
        )
        traces = _CountingTraces(12, 12)
        assert engine.should_refresh_weights()  # never refreshed yet
        engine.note_weights_refreshed()
        assert not engine.should_refresh_weights()
        rng = np.random.default_rng(2)
        steps = 0
        while not engine.should_refresh_weights():
            # Fresh statistics every step so the traces keep moving (a
            # fixed batch converges and the drift would vanish).
            x = _one_hot(32, [4, 4, 4], seed=steps)
            a = np.abs(rng.normal(size=(32, 12)))
            a /= a.sum(axis=1, keepdims=True)
            engine.update_traces(x, a, traces, taupdt=0.9)
            steps += 1
            assert steps < 1000, "staleness never accumulated"
        assert engine.weights_stale
        assert steps >= 1

    def test_mask_swap_invalidates_masked_cache(self):
        """A refreshed mask must force a recomputed masked product."""
        layer = _built_layer(seed=7, tol=1e9)
        x = _one_hot(32, [4, 4, 4], seed=8)
        layer.train_batch(x)
        layer.train_batch(x)
        engine = layer._engine
        ws = engine.workspaces[0]
        assert ws.masked_valid  # cache warm under stale weights
        reference = layer.forward(x)
        # Simulate a structural-plasticity swap: new expanded mask object.
        layer._refresh_mask()
        fresh = engine.forward(
            x, layer.weights, layer.bias, layer._mask_expanded, layer.hyperparams.bias_gain
        )
        expected = layer.backend.forward(
            x,
            layer.weights,
            layer.bias,
            layer._mask_expanded,
            layer.hidden_sizes,
            layer.hyperparams.bias_gain,
        )
        np.testing.assert_array_equal(fresh, expected)
        assert np.array_equal(fresh, reference)  # same mask values -> same result


class TestPipelinedLoop:
    def test_matches_serial_loop_bitwise(self):
        x = _one_hot(256, [4, 4, 4], seed=4)

        serial = _built_layer(seed=21)
        serial_stream = BatchStream(
            x, batch_size=64, shuffle=True, rng=np.random.default_rng(7)
        )
        serial_entropy = []
        for epoch in range(3):
            epoch_entropy = []
            for batch in serial_stream:
                epoch_entropy.append(mean_activation_entropy(serial.train_batch(batch.x)))
            serial.end_epoch(epoch)
            serial_entropy.append(float(np.mean(epoch_entropy)))

        piped = _built_layer(seed=21, n_buffers=2)
        piped_stream = BatchStream(
            x, batch_size=64, shuffle=True, rng=np.random.default_rng(7), prefetch=2
        )
        results = train_layer_pipelined(piped, piped_stream, 3, offload=True)
        piped.flush_weights()

        np.testing.assert_array_equal(serial.traces.p_ij, piped.traces.p_ij)
        np.testing.assert_array_equal(serial.weights, piped.weights)
        np.testing.assert_array_equal(serial.plasticity.mask, piped.plasticity.mask)
        assert serial_entropy == [r["mean_activation_entropy"] for r in results]

    def test_epoch_callback_fires_in_order(self):
        layer = _built_layer(seed=2, n_buffers=2)
        stream = BatchStream(_one_hot(96, [4, 4, 4]), batch_size=32, prefetch=2)
        epochs = []
        train_layer_pipelined(
            layer,
            stream,
            2,
            on_epoch_end=lambda e, logs: epochs.append((e, logs["batches"])),
            offload=True,
        )
        assert epochs == [(0, 3.0), (1, 3.0)]

    def test_mid_epoch_failure_propagates_and_worker_shuts_down(self):
        from repro.exceptions import DataError

        layer = _built_layer(seed=2, n_buffers=2)

        class PoisonedStream:
            def __iter__(self):
                class Good:
                    x = _one_hot(8, [4, 4, 4])

                class Bad:
                    x = np.ones((8, 5))  # wrong width -> DataError in train_batch

                yield Good()
                yield Bad()

        with pytest.raises(DataError):
            train_layer_pipelined(layer, PoisonedStream(), 1, offload=True)
