"""The block-sparse execution plan end to end: layers, engines, networks.

The central contract — the dense and the sparse plan are an execution
choice only.  Each comparison picks its plan by pinning
``kernels.SPARSE_DENSITY_THRESHOLD`` to 0.0 (dense) or 1.0 (sparse) while
the layers compile their layouts.  On the gate configuration (single
hidden hypercolumn, batches of 128+) full training runs are **bitwise
identical**: traces, weights,
predictions and probabilities.  On multi-hypercolumn layers (where the
dense path computes one wide GEMM and the sparse path one GEMM per block)
the runs agree to floating-point summation order and on every hard
prediction.
"""

import numpy as np
import pytest

from repro import kernels
from repro.backend import get_backend
from repro.core import (
    BCPNNClassifier,
    BCPNNHyperParameters,
    InputSpec,
    Network,
    SGDClassifier,
    StructuralPlasticityLayer,
    TrainingSchedule,
)
from repro.instrumentation.pipeline_bench import _pinned_density_threshold as pinned_threshold
from tests.core.layer_helpers import load_mask_density

INPUT_SIZES = [10] * 28
SPEC = InputSpec(INPUT_SIZES)


def _one_hot(n, sizes, seed):
    rng = np.random.default_rng(seed)
    x = np.zeros((n, sum(sizes)))
    offset = 0
    for size in sizes:
        winners = rng.integers(0, size, size=n)
        x[np.arange(n), offset + winners] = 1.0
        offset += size
    return x


X = _one_hot(512, INPUT_SIZES, seed=0)
Y = (np.arange(512) % 2).astype(np.int64)


def _layer(density=0.3, hcus=1, mcus=60, seed=42, competition="sample", **hp):
    hyperparams = BCPNNHyperParameters(
        taupdt=0.02, density=density, competition=competition, **hp
    )
    layer = StructuralPlasticityLayer(hcus, mcus, hyperparams=hyperparams, seed=seed)
    layer.build(SPEC)
    return layer


def _train(layer, epochs=3, batch=128):
    for epoch in range(epochs):
        for lo in range(0, X.shape[0], batch):
            layer.train_batch(X[lo : lo + batch])
        layer.end_epoch(epoch)
    return layer


class TestSparseActivation:
    def test_the_mask_density_decides(self):
        assert _layer(density=0.3).sparse_active
        assert _layer(density=0.5).sparse_active
        # The decision reads the *actual* unit-level layout density.
        assert not _layer(density=1.0).sparse_active

    def test_threshold_pin_selects_the_plan(self):
        with pinned_threshold(1.0):
            assert _layer(density=1.0).sparse_active
        with pinned_threshold(0.0):
            assert not _layer(density=0.1).sparse_active

    def test_mask_swap_reevaluates_the_plan(self):
        layer = _layer(density=0.3)
        assert layer.sparse_active
        load_mask_density(layer, 1.0)
        assert not layer.sparse_active
        load_mask_density(layer, 0.2)
        assert layer.sparse_active

    @pytest.mark.parametrize("surface", ["fitted", "serving", "replica", "parent_state"])
    @pytest.mark.parametrize("density", [0.2, 0.6, 1.0])
    def test_sparse_iff_density_at_or_below_threshold(self, monkeypatch, density, surface):
        """Every consumer of a layer follows its mask: a fitted layer, a
        serving stage, a thread-rank SPMD replica and a layer loaded from a
        state that still carries the retired ``"sparse": "off"`` key."""
        from repro.backend import distributed
        from repro.comm import ThreadComm
        from repro.engine import LayerEngine
        from repro.serving import StreamingPredictor

        spec = InputSpec.uniform(10, 4)  # densities 0.2/0.6/1.0 are exact
        x = _one_hot(64, spec.hypercolumn_sizes, seed=1)
        expected = density <= kernels.SPARSE_DENSITY_THRESHOLD
        network = Network(seed=1)
        network.add(StructuralPlasticityLayer(1, 8, density=density, seed=2))
        network.add(BCPNNClassifier(n_classes=2))
        network.fit(x, Y[:64], input_spec=spec,
                    schedule=TrainingSchedule(hidden_epochs=1, classifier_epochs=1,
                                              batch_size=32))
        layer = network.hidden_layers[0]
        assert layer.sparse_layout is None or layer.sparse_layout.density == density
        if surface == "fitted":
            active = layer.sparse_active
        elif surface == "serving":
            seen = []
            forward = LayerEngine.forward

            def spy(engine, *args, **kwargs):
                seen.append(kwargs.get("sparse") is not None)
                return forward(engine, *args, **kwargs)

            monkeypatch.setattr(LayerEngine, "forward", spy)
            StreamingPredictor(network, batch_size=32).predict_stream(x)
            assert seen and len(set(seen)) == 1
            active = seen[0]
        elif surface == "replica":
            replicas = []
            build = distributed._replica_from_spec

            def capture(spec_, rng):
                replicas.append(build(spec_, rng))
                return replicas[-1]

            monkeypatch.setattr(distributed, "_replica_from_spec", capture)
            with ThreadComm(2) as comm:
                distributed.DistributedTrainer(comm).train_layer(
                    layer, x, epochs=1, batch_size=32, rng=np.random.default_rng(3)
                )
            assert len(replicas) == 1
            active = replicas[0].sparse_active
        else:
            state = dict(layer.state_dict(), sparse="off")
            clone = StructuralPlasticityLayer(1, 8)
            clone.load_state_dict(state)
            active = clone.sparse_active
        assert active == expected

    def test_engine_runs_sparse_iff_handed_a_bundle(self):
        """The engine holds no policy: a bundle means the gather-GEMM path
        (no dense matrix needed), none means the dense masked GEMM."""
        from repro.engine import ExecutionPlan, LayerEngine

        layer = _layer(density=0.3, mcus=20)
        engine = LayerEngine(get_backend("numpy"), ExecutionPlan(280, (20,), 32))
        sparse = engine.forward(X[:32], None, layer.bias, None, sparse=layer.sparse_context())
        sparse = sparse.copy()
        dense = engine.forward(X[:32], layer.weights, layer.bias, layer.mask_expanded)
        np.testing.assert_allclose(sparse, dense, rtol=0, atol=1e-12)


def _public_entry_points():
    from repro.backend.distributed import DistributedTrainer
    from repro.core.execution import BackendExecutionMixin
    from repro.engine import ExecutionPlan
    from repro.experiments import (
        HiggsExperimentConfig,
        run_capacity_sweep,
        run_distributed_equivalence,
        run_receptive_field_sweep,
        run_related_work_comparison,
        train_and_evaluate,
    )
    from repro.serving.server import ModelRunner

    return [
        StructuralPlasticityLayer, Network, Network.fit, TrainingSchedule,
        HiggsExperimentConfig, ExecutionPlan, ExecutionPlan.for_traces,
        BackendExecutionMixin.configure_execution, ModelRunner.run_batch,
        train_and_evaluate, DistributedTrainer.train_layer, run_capacity_sweep,
        run_receptive_field_sweep, run_related_work_comparison,
        run_distributed_equivalence,
    ]


@pytest.mark.parametrize("entry", _public_entry_points(), ids=lambda f: f.__qualname__)
def test_no_entry_point_takes_a_plan_or_crash_override(entry):
    """The mask picks the kernel and the fault plan injects crashes: no
    public signature offers ``sparse=`` or ``fault_injection=``."""
    import inspect

    parameters = inspect.signature(entry).parameters
    assert "sparse" not in parameters and "fault_injection" not in parameters


class TestBitwiseEquivalence:
    """Gate configuration: H=1, batch 128 — sparse == dense bit for bit."""

    @pytest.fixture(scope="class")
    def pair(self):
        with pinned_threshold(0.0):
            dense = _train(_layer(mcus=300))
        with pinned_threshold(1.0):
            sparse = _train(_layer(mcus=300))
        return dense, sparse

    def test_traces_bitwise_equal(self, pair):
        dense, sparse = pair
        assert np.array_equal(sparse.traces.p_ij, dense.traces.p_ij)
        assert np.array_equal(sparse.traces.p_i, dense.traces.p_i)
        assert np.array_equal(sparse.traces.p_j, dense.traces.p_j)

    def test_masks_bitwise_equal(self, pair):
        dense, sparse = pair
        assert np.array_equal(sparse.plasticity.mask, dense.plasticity.mask)

    def test_weights_property_materialises_dense_values(self, pair):
        dense, sparse = pair
        # Reading the property settles the lazily-deferred dense matrix.
        assert np.array_equal(sparse.weights, dense.weights)
        assert np.array_equal(sparse.bias, dense.bias)

    def test_forward_bitwise_equal(self, pair):
        dense, sparse = pair
        assert np.array_equal(sparse.forward(X), dense.forward(X))

    def test_stale_weights_schedule_is_mode_invariant(self):
        # tol > 0 with a static mask: both modes must make the same refresh
        # decisions (drift is computed from traces, which stay bitwise
        # equal) and produce the same results.
        def run(threshold):
            with pinned_threshold(threshold):
                layer = _layer(mcus=300, competition="softmax", mask_update_period=1000)
                layer.configure_execution(weight_refresh_tol=0.05)
                _train(layer, epochs=2)
                refreshes = layer.weights_token
                layer.flush_weights()
            return layer, refreshes

        dense, dense_refreshes = run(0.0)
        sparse, sparse_refreshes = run(1.0)
        assert sparse_refreshes == dense_refreshes
        assert np.array_equal(sparse.traces.p_ij, dense.traces.p_ij)
        assert np.array_equal(sparse.weights, dense.weights)


class TestNetworkEquivalence:
    @pytest.mark.parametrize("head", ["bcpnn", "sgd"])
    def test_fit_predict_bitwise_equal_single_hypercolumn(self, head):
        def run(threshold):
            network = Network(seed=3)
            network.add(StructuralPlasticityLayer(1, 120, density=0.3, seed=4))
            if head == "bcpnn":
                network.add(BCPNNClassifier(n_classes=2))
            else:
                network.add(SGDClassifier(n_classes=2, seed=5))
            with pinned_threshold(threshold):
                network.fit(X, Y, input_spec=SPEC,
                            schedule=TrainingSchedule(hidden_epochs=2,
                                                      classifier_epochs=2,
                                                      batch_size=128))
            return network

        dense = run(0.0)
        sparse = run(1.0)
        assert np.array_equal(sparse.predict(X), dense.predict(X))
        assert np.array_equal(sparse.predict_proba(X), dense.predict_proba(X))

    def test_multi_hypercolumn_matches_to_summation_order(self):
        def run(threshold):
            network = Network(seed=3)
            network.add(StructuralPlasticityLayer(4, 30, density=0.3, seed=4))
            network.add(BCPNNClassifier(n_classes=2))
            with pinned_threshold(threshold):
                network.fit(X, Y, input_spec=SPEC,
                            schedule=TrainingSchedule(hidden_epochs=2,
                                                      classifier_epochs=2,
                                                      batch_size=128))
            return network

        dense = run(0.0)
        sparse = run(1.0)
        np.testing.assert_allclose(
            sparse.predict_proba(X), dense.predict_proba(X), rtol=0, atol=1e-9
        )
        assert np.array_equal(sparse.predict(X), dense.predict(X))

    def test_pipelined_fit_equals_serial_fit_under_sparse(self):
        def run(pipeline):
            network = Network(seed=6)
            network.add(StructuralPlasticityLayer(1, 80, density=0.3, seed=7))
            network.add(BCPNNClassifier(n_classes=2))
            network.fit(X, Y, input_spec=SPEC,
                        schedule=TrainingSchedule(hidden_epochs=2,
                                                  classifier_epochs=1,
                                                  batch_size=128,
                                                  pipeline=pipeline))
            return network

        serial = run(False)
        piped = run(True)
        assert serial.hidden_layers[0].sparse_active
        assert np.array_equal(piped.predict_proba(X), serial.predict_proba(X))


class TestBackendsSparse:
    @pytest.mark.parametrize(
        "name,atol",
        [("numpy", 1e-11),
         # float32 re-rounds the activations, so GEMM-order ULPs that
         # straddle a rounding boundary can grow to single-precision eps.
         ("float32", 1e-6),
         # The half-width formats' declared precision (tests/engine).
         ("float16", 5e-2), ("posit16", 5e-2)],
    )
    def test_sparse_forward_matches_dense_forward(self, name, atol):
        backend = get_backend(name)
        with pinned_threshold(0.0):
            dense = _layer(mcus=80, seed=11)
        sparse = _layer(mcus=80, seed=11)
        dense.backend = backend
        sparse.backend = backend
        d = dense.forward(X[:128])
        s = sparse.forward(X[:128])
        np.testing.assert_allclose(s, d, rtol=0, atol=atol)

    @pytest.mark.parametrize("name", ["numpy", "float32", "float16", "posit16"])
    def test_sparse_training_matches_dense_per_backend(self, name):
        def run(threshold):
            with pinned_threshold(threshold):
                layer = _layer(mcus=60, seed=12, competition="softmax")
                layer.backend = get_backend(name)
                _train(layer, epochs=1)
                layer.flush_weights()
            return layer.traces.p_ij.copy(), layer.weights.copy()

        dense_pij, dense_w = run(0.0)
        sparse_pij, sparse_w = run(1.0)
        np.testing.assert_allclose(sparse_pij, dense_pij, rtol=0, atol=1e-12)
        np.testing.assert_allclose(sparse_w, dense_w, rtol=0, atol=1e-9)

    def test_lowprec_packed_weights_are_quantised(self):
        backend = get_backend("float16")
        layer = _layer(mcus=20, seed=13)
        layer.backend = backend
        ctx = layer.sparse_context()
        quantised = backend.quantize(ctx.blocks[0])
        assert np.array_equal(ctx.blocks[0], quantised)


class TestRepackOnMaskChange:
    def test_structural_plasticity_recompiles_and_repacks(self):
        layer = _layer(mcus=40, seed=20, competition="softmax")
        _train(layer, epochs=1)
        layout_before = layer.sparse_layout
        # Force swaps by zeroing half the mutual-information mass: run more
        # epochs until the plasticity rule actually swaps.
        swaps = 0
        for epoch in range(1, 6):
            for lo in range(0, X.shape[0], 128):
                layer.train_batch(X[lo : lo + 128])
            swaps += layer.end_epoch(epoch)
            if swaps:
                break
        assert swaps > 0, "plasticity never swapped; the fixture is broken"
        assert layer.sparse_layout is not layout_before
        # After the swap the packed slabs must re-pack along the NEW layout:
        # the sparse forward equals a dense layer put into the same state.
        with pinned_threshold(0.0):
            reference = _layer(mcus=40, seed=20, competition="softmax")
            reference.traces.p_i[:] = layer.traces.p_i
            reference.traces.p_j[:] = layer.traces.p_j
            reference.traces.p_ij[:] = layer.traces.p_ij
            reference.plasticity.mask[:] = layer.plasticity.mask
            reference._refresh_mask()
            reference.refresh_weights()
        assert not reference.sparse_active
        np.testing.assert_allclose(
            layer.forward(X[:128]), reference.forward(X[:128]), rtol=0, atol=1e-11
        )

    def test_layout_identity_invalidates_engine_caches(self):
        layer = _layer(mcus=30, seed=21)
        layer.train_batch(X[:128])
        engine = layer.engine_for(128)
        ws = engine.workspaces[0]
        # Simulate a serving-style scatter cache, then change the mask.
        ws.masked_valid = True
        layer.plasticity.mask[:, 0] = np.roll(layer.plasticity.mask[:, 0], 1)
        layer._refresh_mask()
        layer.train_batch(X[:128])
        # The dispatch after the mask change must have dropped the cache
        # (masked_valid reset by the engine key mismatch on the new layout).
        assert layer.sparse_context().layout is layer.sparse_layout


class TestStateRoundTrip:
    def test_round_trip_keeps_the_plan_without_a_sparse_key(self):
        layer = _layer(mcus=20, seed=30)
        _train(layer, epochs=1)
        layer.flush_weights()
        state = layer.state_dict()
        assert "sparse" not in state
        clone = StructuralPlasticityLayer(1, 20)
        clone.load_state_dict(state)
        assert clone.sparse_active
        assert np.array_equal(clone.forward(X[:128]), layer.forward(X[:128]))


class TestLazyDenseWeights:
    def test_dense_matrix_lags_and_settles(self):
        layer = _layer(mcus=30, seed=40)
        layer.train_batch(X[:128])
        assert layer._dense_stale
        # Reading the property settles it to exactly the trace-derived values.
        traces = layer.traces
        expected_w, expected_b = kernels.traces_to_weights(
            traces.p_i, traces.p_j, traces.p_ij, layer.hyperparams.trace_floor
        )
        assert np.array_equal(layer.weights, expected_w)
        assert not layer._dense_stale
        assert np.array_equal(layer.bias, expected_b)

    def test_flush_weights_settles_the_dense_matrix(self):
        layer = _layer(mcus=30, seed=41)
        layer.train_batch(X[:128])
        layer.flush_weights()
        assert not layer._dense_stale
