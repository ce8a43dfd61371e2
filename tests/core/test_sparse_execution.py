"""The block-sparse execution plan end to end: layers, engines, networks.

The central contract — ``sparse="on"`` vs ``sparse="off"`` is an execution
choice only.  On the gate configuration (single hidden hypercolumn, batches
of 128+) full training runs are **bitwise identical**: traces, weights,
predictions and probabilities.  On multi-hypercolumn layers (where the
dense path computes one wide GEMM and the sparse path one GEMM per block)
the runs agree to floating-point summation order and on every hard
prediction.
"""

import numpy as np
import pytest

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


def _layer(sparse, density=0.3, hcus=1, mcus=60, seed=42, competition="sample", **hp):
    hyperparams = BCPNNHyperParameters(
        taupdt=0.02, density=density, competition=competition, **hp
    )
    layer = StructuralPlasticityLayer(
        hcus, mcus, hyperparams=hyperparams, sparse=sparse, seed=seed
    )
    layer.build(SPEC)
    return layer


def _train(layer, epochs=3, batch=128):
    for epoch in range(epochs):
        for lo in range(0, X.shape[0], batch):
            layer.train_batch(X[lo : lo + batch])
        layer.end_epoch(epoch)
    return layer


class TestSparseActivation:
    def test_auto_follows_the_density_threshold(self):
        assert _layer("auto", density=0.3).sparse_active
        assert _layer("auto", density=0.5).sparse_active
        # auto consults the *actual* unit-level layout density.
        assert not _layer("auto", density=1.0).sparse_active

    def test_forced_modes(self):
        assert _layer("on", density=1.0).sparse_active
        assert not _layer("off", density=0.1).sparse_active
        assert _layer(True, density=1.0).sparse_active
        assert not _layer(False, density=0.1).sparse_active

    def test_configure_execution_switches_the_plan(self):
        layer = _layer("off", density=0.3)
        assert not layer.sparse_active
        layer.configure_execution(sparse="on")
        assert layer.sparse_active
        assert layer.sparse_layout is not None
        layer.configure_execution(sparse="off")
        assert not layer.sparse_active

    def test_set_density_reevaluates_auto(self):
        layer = _layer("auto", density=0.3)
        assert layer.sparse_active
        layer.set_density(1.0)
        assert not layer.sparse_active
        layer.set_density(0.2)
        assert layer.sparse_active

    def test_engine_plan_carries_the_policy(self):
        layer = _layer("on", density=0.3)
        engine = layer.engine_for(64)
        assert engine.plan.sparse == "on"
        assert engine.plan.sparse_active(layer.sparse_layout)

    def test_engine_rejecting_a_bundle_without_dense_weights_is_loud(self):
        """A plan/caller policy disagreement must not crash deep in a
        backend (or silently serve stale dense weights)."""
        from repro.engine import ExecutionPlan, LayerEngine
        from repro.exceptions import ConfigurationError

        layer = _layer("on", density=0.3, mcus=20)
        ctx = layer.sparse_context()
        engine = LayerEngine(
            get_backend("numpy"),
            ExecutionPlan(280, (20,), 32, sparse="off"),
        )
        with pytest.raises(ConfigurationError):
            engine.forward(X[:32], None, layer.bias, None, sparse=ctx)
        # With a dense matrix supplied, the same engine falls back cleanly.
        out = engine.forward(
            X[:32], layer.weights, layer.bias, layer.mask_expanded, sparse=ctx
        )
        assert out.shape == (32, 20)

    def test_network_level_binding(self):
        network = Network(seed=0, sparse="off")
        layer = StructuralPlasticityLayer(1, 10, density=0.2, seed=1)
        network.add(layer).add(BCPNNClassifier(n_classes=2))
        network.build(SPEC)
        assert not layer.sparse_active
        # A layer with its own explicit choice keeps it.
        network2 = Network(seed=0, sparse="off")
        layer2 = StructuralPlasticityLayer(1, 10, density=0.2, sparse="on", seed=1)
        network2.add(layer2).add(BCPNNClassifier(n_classes=2))
        network2.build(SPEC)
        assert layer2.sparse_active


class TestBitwiseEquivalence:
    """Gate configuration: H=1, batch 128 — sparse == dense bit for bit."""

    @pytest.fixture(scope="class")
    def pair(self):
        dense = _train(_layer("off", mcus=300))
        sparse = _train(_layer("on", mcus=300))
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
        def run(mode):
            layer = _layer(mode, mcus=300, competition="softmax",
                           mask_update_period=1000)
            layer.configure_execution(weight_refresh_tol=0.05)
            _train(layer, epochs=2)
            refreshes = layer.weights_token
            layer.flush_weights()
            return layer, refreshes

        dense, dense_refreshes = run("off")
        sparse, sparse_refreshes = run("on")
        assert sparse_refreshes == dense_refreshes
        assert np.array_equal(sparse.traces.p_ij, dense.traces.p_ij)
        assert np.array_equal(sparse.weights, dense.weights)


class TestNetworkEquivalence:
    @pytest.mark.parametrize("head", ["bcpnn", "sgd"])
    def test_fit_predict_bitwise_equal_single_hypercolumn(self, head):
        def run(mode):
            network = Network(seed=3, sparse=mode)
            network.add(StructuralPlasticityLayer(1, 120, density=0.3, seed=4))
            if head == "bcpnn":
                network.add(BCPNNClassifier(n_classes=2))
            else:
                network.add(SGDClassifier(n_classes=2, seed=5))
            network.fit(X, Y, input_spec=SPEC,
                        schedule=TrainingSchedule(hidden_epochs=2,
                                                  classifier_epochs=2,
                                                  batch_size=128))
            return network

        dense = run("off")
        sparse = run("on")
        assert np.array_equal(sparse.predict(X), dense.predict(X))
        assert np.array_equal(sparse.predict_proba(X), dense.predict_proba(X))

    def test_multi_hypercolumn_matches_to_summation_order(self):
        def run(mode):
            network = Network(seed=3, sparse=mode)
            network.add(StructuralPlasticityLayer(4, 30, density=0.3, seed=4))
            network.add(BCPNNClassifier(n_classes=2))
            network.fit(X, Y, input_spec=SPEC,
                        schedule=TrainingSchedule(hidden_epochs=2,
                                                  classifier_epochs=2,
                                                  batch_size=128))
            return network

        dense = run("off")
        sparse = run("on")
        np.testing.assert_allclose(
            sparse.predict_proba(X), dense.predict_proba(X), rtol=0, atol=1e-9
        )
        assert np.array_equal(sparse.predict(X), dense.predict(X))

    def test_pipelined_fit_equals_serial_fit_under_sparse(self):
        def run(pipeline):
            network = Network(seed=6, sparse="on")
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
        assert np.array_equal(piped.predict_proba(X), serial.predict_proba(X))

    def test_fit_sparse_kwarg_forces_the_plan(self):
        network = Network(seed=3)
        layer = StructuralPlasticityLayer(1, 20, density=0.3, sparse="off", seed=4)
        network.add(layer).add(BCPNNClassifier(n_classes=2))
        network.fit(X[:128], Y[:128], input_spec=SPEC, sparse="on",
                    schedule=TrainingSchedule(hidden_epochs=1, classifier_epochs=1,
                                              batch_size=64))
        assert layer.sparse_active
        # The force reaches the serialised spec, so worker replicas rebuilt
        # from a blob make the same execution choice as the driver.
        assert layer.state_dict()["sparse"] == "on"

    def test_schedule_sparse_stays_rebindable_across_fits(self):
        """A default first fit must not permanently claim the sparse spec."""
        schedule = TrainingSchedule(hidden_epochs=1, classifier_epochs=1,
                                    batch_size=64)
        network = Network(seed=3)
        layer = StructuralPlasticityLayer(1, 20, density=0.3, seed=4)
        network.add(layer).add(BCPNNClassifier(n_classes=2))
        network.fit(X[:128], Y[:128], input_spec=SPEC, schedule=schedule)
        assert layer.sparse_active  # auto at density 0.3
        network.fit(X[:128], Y[:128], input_spec=SPEC,
                    schedule=schedule.replace(sparse="off"))
        assert not layer.sparse_active
        # ... while a network-level choice survives default schedules.
        network2 = Network(seed=3, sparse="off")
        layer2 = StructuralPlasticityLayer(1, 20, density=0.3, seed=4)
        network2.add(layer2).add(BCPNNClassifier(n_classes=2))
        network2.fit(X[:128], Y[:128], input_spec=SPEC, schedule=schedule)
        assert not layer2.sparse_active


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
        dense = _layer("off", mcus=80, seed=11)
        sparse = _layer("on", mcus=80, seed=11)
        dense.backend = backend
        sparse.backend = backend
        d = dense.forward(X[:128])
        s = sparse.forward(X[:128])
        np.testing.assert_allclose(s, d, rtol=0, atol=atol)

    @pytest.mark.parametrize("name", ["numpy", "float32", "float16", "posit16"])
    def test_sparse_training_matches_dense_per_backend(self, name):
        def run(mode):
            layer = _layer(mode, mcus=60, seed=12, competition="softmax")
            layer.backend = get_backend(name)
            _train(layer, epochs=1)
            layer.flush_weights()
            return layer.traces.p_ij.copy(), layer.weights.copy()

        dense_pij, dense_w = run("off")
        sparse_pij, sparse_w = run("on")
        np.testing.assert_allclose(sparse_pij, dense_pij, rtol=0, atol=1e-12)
        np.testing.assert_allclose(sparse_w, dense_w, rtol=0, atol=1e-9)

    def test_lowprec_packed_weights_are_quantised(self):
        backend = get_backend("float16")
        layer = _layer("on", mcus=20, seed=13)
        layer.backend = backend
        ctx = layer.sparse_context()
        quantised = backend.quantize(ctx.blocks[0])
        assert np.array_equal(ctx.blocks[0], quantised)


class TestRepackOnMaskChange:
    def test_structural_plasticity_recompiles_and_repacks(self):
        layer = _layer("on", mcus=40, seed=20, competition="softmax")
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
        reference = _layer("off", mcus=40, seed=20, competition="softmax")
        reference.traces.p_i[:] = layer.traces.p_i
        reference.traces.p_j[:] = layer.traces.p_j
        reference.traces.p_ij[:] = layer.traces.p_ij
        reference.plasticity.mask[:] = layer.plasticity.mask
        reference._refresh_mask()
        reference.refresh_weights()
        np.testing.assert_allclose(
            layer.forward(X[:128]), reference.forward(X[:128]), rtol=0, atol=1e-11
        )

    def test_layout_identity_invalidates_engine_caches(self):
        layer = _layer("on", mcus=30, seed=21)
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
    def test_state_dict_carries_the_sparse_spec(self):
        layer = _layer("on", mcus=20, seed=30)
        _train(layer, epochs=1)
        layer.flush_weights()
        state = layer.state_dict()
        assert state["sparse"] == "on"
        clone = StructuralPlasticityLayer(1, 20)
        clone.load_state_dict(state)
        assert clone.sparse_active
        assert np.array_equal(clone.forward(X[:128]), layer.forward(X[:128]))

    def test_legacy_state_without_sparse_key_defaults_to_auto(self):
        layer = _layer("auto", mcus=20, seed=31)
        state = layer.state_dict()
        state.pop("sparse")
        clone = StructuralPlasticityLayer(1, 20)
        clone.load_state_dict(state)
        # density 0.3 <= threshold -> auto resolves to sparse.
        assert clone.sparse_active
        assert np.array_equal(clone.forward(X[:64]), layer.forward(X[:64]))


class TestLazyDenseWeights:
    def test_dense_matrix_lags_and_settles(self):
        layer = _layer("on", mcus=30, seed=40)
        layer.train_batch(X[:128])
        assert layer._dense_stale
        # Reading the property settles it to exactly the trace-derived values.
        expected_w, expected_b = layer.traces.to_weights(
            layer.hyperparams.trace_floor
        )
        assert np.array_equal(layer.weights, expected_w)
        assert not layer._dense_stale
        assert np.array_equal(layer.bias, expected_b)

    def test_flush_weights_settles_the_dense_matrix(self):
        layer = _layer("on", mcus=30, seed=41)
        layer.train_batch(X[:128])
        layer.flush_weights()
        assert not layer._dense_stale
