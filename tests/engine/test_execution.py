"""Tests for the streaming execution engine and the fused backend path.

The central contract: for every registered backend, one ``fused_update``
dispatch must produce the same activations and trace updates as the seed's
composed allocate-per-batch path (forward -> batch_statistics -> EMA) built
from the reference NumPy kernels, within the backend's declared precision.
"""

import numpy as np
import pytest

from repro import kernels
from repro.backend import get_backend
from repro.engine import ExecutionPlan, LayerEngine, LayerWorkspace
from repro.exceptions import ConfigurationError

N_INPUT = 40
INPUT_SIZES = [10] * 4
HIDDEN_SIZES = (6, 6)
N_HIDDEN = 12
BATCH = 48

#: (backend name, absolute tolerance implied by its declared precision)
BACKEND_TOLERANCES = [
    ("numpy", 1e-12),
    ("float32", 1e-4),
    ("float16", 5e-2),
    ("posit16", 5e-2),
]


class _Traces:
    """Minimal trace container matching the ProbabilityTraces buffer layout."""

    def __init__(self, p_i, p_j, p_ij):
        self.p_i = p_i.copy()
        self.p_j = p_j.copy()
        self.p_ij = p_ij.copy()
        self.n_input = p_i.shape[0]
        self.hidden_sizes = list(HIDDEN_SIZES)
        self.updates_seen = 0


def _problem(seed=0):
    rng = np.random.default_rng(seed)
    x = np.zeros((BATCH, N_INPUT))
    offset = 0
    for size in INPUT_SIZES:
        winners = rng.integers(0, size, size=BATCH)
        x[np.arange(BATCH), offset + winners] = 1.0
        offset += size
    weights = rng.normal(scale=0.5, size=(N_INPUT, N_HIDDEN))
    bias = rng.normal(scale=0.5, size=N_HIDDEN)
    mask = kernels.expand_mask(
        (rng.random((len(INPUT_SIZES), len(HIDDEN_SIZES))) > 0.3).astype(float),
        INPUT_SIZES,
        list(HIDDEN_SIZES),
    )
    p_i = np.abs(rng.normal(0.1, 0.02, size=N_INPUT)) + 1e-3
    p_j = np.abs(rng.normal(0.1, 0.02, size=N_HIDDEN)) + 1e-3
    p_ij = np.outer(p_i, p_j) * rng.uniform(0.9, 1.1, size=(N_INPUT, N_HIDDEN))
    return x, weights, bias, mask, p_i, p_j, p_ij


def _reference_step(x, weights, bias, mask, p_i, p_j, p_ij, taupdt):
    """The seed's composed allocate-per-batch training step (pure NumPy)."""
    support = kernels.compute_support(x, weights, bias, mask, 1.0)
    activations = kernels.hidden_activations(support, list(HIDDEN_SIZES))
    mean_x, mean_a, mean_outer = kernels.batch_outer_product(x, activations)
    decay = 1.0 - taupdt
    ref_p_i = decay * p_i + taupdt * mean_x
    ref_p_j = decay * p_j + taupdt * mean_a
    ref_p_ij = decay * p_ij + taupdt * mean_outer
    return activations, ref_p_i, ref_p_j, ref_p_ij


class TestFusedEquivalence:
    @pytest.mark.parametrize("name,tol", BACKEND_TOLERANCES)
    def test_fused_update_matches_composed_reference(self, name, tol):
        x, weights, bias, mask, p_i, p_j, p_ij = _problem(seed=3)
        taupdt = 0.05
        ref_acts, ref_p_i, ref_p_j, ref_p_ij = _reference_step(
            x, weights, bias, mask, p_i, p_j, p_ij, taupdt
        )
        backend = get_backend(name)
        traces = _Traces(p_i, p_j, p_ij)
        engine = LayerEngine(backend, ExecutionPlan(N_INPUT, HIDDEN_SIZES, BATCH))
        activations = engine.fused_update(
            x, weights, bias, mask, 1.0, traces, taupdt, activity_fn=None
        )
        assert traces.updates_seen == 1
        np.testing.assert_allclose(activations, ref_acts, atol=tol)
        np.testing.assert_allclose(traces.p_i, ref_p_i, atol=tol)
        np.testing.assert_allclose(traces.p_j, ref_p_j, atol=tol)
        np.testing.assert_allclose(traces.p_ij, ref_p_ij, atol=tol)

    @pytest.mark.parametrize("name,tol", BACKEND_TOLERANCES)
    def test_forward_into_matches_forward(self, name, tol):
        x, weights, bias, mask, *_ = _problem(seed=4)
        backend = get_backend(name)
        plain = backend.forward(x, weights, bias, mask, list(HIDDEN_SIZES))
        out = np.empty_like(plain)
        result = backend.forward_into(
            x, weights, bias, mask, list(HIDDEN_SIZES), out=out
        )
        assert result is out
        # The same backend must agree with itself exactly regardless of the
        # dispatch style; declared precision only bounds cross-backend drift.
        np.testing.assert_allclose(out, plain, atol=1e-12)

    @pytest.mark.parametrize("name,tol", BACKEND_TOLERANCES)
    def test_fused_activity_fn_is_applied(self, name, tol):
        """Trace update must use the transformed activity, not the activations."""
        x, weights, bias, mask, p_i, p_j, p_ij = _problem(seed=5)
        taupdt = 0.1
        backend = get_backend(name)
        traces = _Traces(p_i, p_j, p_ij)
        engine = LayerEngine(backend, ExecutionPlan(N_INPUT, HIDDEN_SIZES, BATCH))
        const_activity = np.tile(
            np.concatenate([np.full(m, 1.0 / m) for m in HIDDEN_SIZES]), (BATCH, 1)
        )
        engine.fused_update(
            x, weights, bias, mask, 1.0, traces, taupdt,
            activity_fn=lambda a: const_activity,
        )
        # With a constant uniform activity the hidden marginal update is exact.
        expected_p_j = (1.0 - taupdt) * p_j + taupdt * const_activity.mean(axis=0)
        np.testing.assert_allclose(traces.p_j, expected_p_j, atol=max(tol, 1e-10))


class TestWorkspaceReuse:
    def test_numpy_fused_returns_workspace_view(self):
        x, weights, bias, mask, p_i, p_j, p_ij = _problem(seed=6)
        backend = get_backend("numpy")
        engine = LayerEngine(backend, ExecutionPlan(N_INPUT, HIDDEN_SIZES, BATCH))
        traces = _Traces(p_i, p_j, p_ij)
        first = engine.fused_update(x, weights, bias, mask, 1.0, traces, 0.05)
        second = engine.fused_update(x, weights, bias, mask, 1.0, traces, 0.05)
        # Same preallocated buffer on every dispatch: zero steady-state allocation.
        assert first.base is engine.workspace.activations
        assert second.base is engine.workspace.activations
        assert np.shares_memory(first, second)

    def test_remainder_batches_use_leading_slices(self):
        x, weights, bias, mask, p_i, p_j, p_ij = _problem(seed=7)
        backend = get_backend("numpy")
        engine = LayerEngine(backend, ExecutionPlan(N_INPUT, HIDDEN_SIZES, BATCH))
        small = x[: BATCH // 3]
        activations = engine.forward(small, weights, bias, mask)
        assert activations.shape == (BATCH // 3, N_HIDDEN)
        reference = backend.forward(small, weights, bias, mask, list(HIDDEN_SIZES))
        np.testing.assert_allclose(activations, reference, atol=1e-12)

    def test_workspace_reports_capacity_and_memory(self):
        ws = LayerWorkspace(N_INPUT, N_HIDDEN, BATCH)
        assert ws.accommodates(BATCH)
        assert ws.accommodates(1)
        assert not ws.accommodates(BATCH + 1)
        assert not ws.accommodates(0)
        expected = (
            ws.masked_weights.nbytes + ws.support.nbytes + ws.activations.nbytes
            + ws.mean_x.nbytes + ws.mean_a.nbytes + ws.mean_outer.nbytes
        )
        assert ws.nbytes() == expected

    def test_workspace_allocates_on_first_use(self):
        # Everything but support is allocated on first use, and nbytes()
        # counts exactly what has been.
        x, weights, bias, mask, p_i, p_j, p_ij = _problem(seed=11)
        engine = LayerEngine(get_backend("numpy"), ExecutionPlan(N_INPUT, HIDDEN_SIZES, BATCH))
        ws = engine.workspace
        assert ws.nbytes() == BATCH * N_HIDDEN * 8
        engine.forward(x, weights, bias, None)
        batch_buffers = 2 * BATCH * N_HIDDEN * 8
        assert ws.nbytes() == batch_buffers
        engine.forward(x, weights, bias, mask)  # the dense masked product
        assert ws.nbytes() == batch_buffers + N_INPUT * N_HIDDEN * 8
        engine.fused_update(x, weights, bias, mask, 1.0, _Traces(p_i, p_j, p_ij), 0.01)
        statistics = (N_INPUT + N_HIDDEN + N_INPUT * N_HIDDEN) * 8
        assert ws.nbytes() == batch_buffers + N_INPUT * N_HIDDEN * 8 + statistics

    def test_gather_scratch_is_sized_by_the_layout(self):
        input_sizes = [4] * (N_INPUT // 4)
        mask = np.zeros((len(input_sizes), len(HIDDEN_SIZES)))
        mask[:2] = 1  # two input hypercolumns (8 units) per hidden block
        narrow = kernels.SparseLayout(mask, input_sizes, HIDDEN_SIZES)
        ws = LayerWorkspace(N_INPUT, N_HIDDEN, BATCH)
        gather = ws.gather_scratch(narrow)
        assert gather.size == BATCH * 8 * len(HIDDEN_SIZES) < BATCH * N_INPUT
        assert ws.gather_scratch(narrow) is gather
        mask[:5] = 1
        wider = kernels.SparseLayout(mask, input_sizes, HIDDEN_SIZES)
        assert ws.gather_scratch(wider).size == BATCH * 20 * len(HIDDEN_SIZES)
        assert ws.nbytes() == BATCH * N_HIDDEN * 8 + BATCH * 20 * len(HIDDEN_SIZES) * 8

    def test_in_place_softmax_matches_and_holds_one_buffer(self):
        # A workspace whose activations are bound to its support (a serving
        # stage) counts that buffer once and computes the same activations.
        x, weights, bias, mask, *_ = _problem(seed=12)
        backend = get_backend("numpy")
        plan = ExecutionPlan(N_INPUT, HIDDEN_SIZES, BATCH)
        reference = LayerEngine(backend, plan).forward(x, weights, bias, mask).copy()
        engine = LayerEngine(backend, plan)
        ws = engine.workspace
        ws.activations = ws.support
        activations = engine.forward(x, weights, bias, mask)
        assert np.shares_memory(activations, ws.support)
        assert np.array_equal(activations, reference)
        assert ws.nbytes() == BATCH * N_HIDDEN * 8 + N_INPUT * N_HIDDEN * 8

    def test_invalid_plan_rejected(self):
        with pytest.raises(ConfigurationError):
            ExecutionPlan(0, HIDDEN_SIZES, BATCH)
        with pytest.raises(ConfigurationError):
            ExecutionPlan(N_INPUT, (), BATCH)
        with pytest.raises(ConfigurationError):
            LayerWorkspace(N_INPUT, N_HIDDEN, 0)


class TestLayerEngineLifecycle:
    def test_layer_grows_engine_for_larger_batches(self):
        from repro.core import BCPNNHyperParameters, InputSpec, StructuralPlasticityLayer

        layer = StructuralPlasticityLayer(
            2, 6, hyperparams=BCPNNHyperParameters(taupdt=0.05, density=1.0), seed=0
        )
        layer.build(InputSpec(INPUT_SIZES))
        rng = np.random.default_rng(0)
        x_small = np.zeros((8, N_INPUT))
        x_small[np.arange(8), rng.integers(0, 10, size=8) * 4] = 1.0
        layer.train_batch(x_small)
        small_capacity = layer._engine.plan.batch_size
        x_large = np.zeros((32, N_INPUT))
        x_large[np.arange(32), rng.integers(0, 10, size=32) * 4] = 1.0
        layer.train_batch(x_large)
        assert layer._engine.plan.batch_size >= 32 > small_capacity

    def test_backend_swap_rebuilds_engine(self):
        from repro.core import BCPNNHyperParameters, InputSpec, StructuralPlasticityLayer

        layer = StructuralPlasticityLayer(
            2, 6, hyperparams=BCPNNHyperParameters(taupdt=0.05, density=1.0), seed=0
        )
        layer.build(InputSpec(INPUT_SIZES))
        x = np.zeros((8, N_INPUT))
        x[:, 0] = 1.0
        layer.train_batch(x)
        first_engine = layer._engine
        layer.backend = "float32"
        layer.train_batch(x)
        assert layer._engine is not first_engine
        assert layer._engine.backend.precision == "float32"

    def test_network_threads_backend_through_layers(self):
        from repro.core import BCPNNClassifier, Network, StructuralPlasticityLayer

        net = Network(seed=0, backend="float32")
        hidden = StructuralPlasticityLayer(1, 4, density=1.0, seed=1)
        head = BCPNNClassifier(n_classes=2)
        net.add(hidden)
        net.add(head)
        # One shared backend instance across the whole stack.
        assert hidden.backend is net.backend
        assert head.backend is net.backend
        assert net.backend.precision == "float32"
        # An explicit per-layer choice survives network binding.
        explicit = StructuralPlasticityLayer(1, 4, density=1.0, backend="numpy", seed=2)
        net2 = Network(seed=0, backend="float32")
        net2.add(explicit)
        assert explicit.backend.name == "numpy"
