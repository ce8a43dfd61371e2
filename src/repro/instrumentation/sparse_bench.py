"""Measurement of the block-sparse execution plan vs the dense fused path.

Shared by ``benchmarks/bench_kernels.py`` (which records the result in the
``sparse_density_sweep`` section of ``BENCH_kernels.json`` and gates CI on it
through ``--check-sparse``).  The layer-level comparisons pick their plan by
pinning :data:`repro.kernels.SPARSE_DENSITY_THRESHOLD` to 0.0 (dense) or 1.0
(sparse) while the layers compile their mask layouts.

Three comparisons run per density, all through the shipped engine/backend
paths:

* **fused training step** (the gated number) — one complete engine step per
  batch: the trace->weight refresh (full-matrix ``traces_to_weights`` vs
  packed-slab ``pack_weights``) plus the fused forward/statistics/EMA
  dispatch (dense masked GEMM vs gather-GEMM).  This is exactly the step
  the ``fused_vs_unfused`` and ``fused_training_backends`` sections time,
  so the sparse numbers are directly comparable with the rest of the file.
  The competition rule and the epoch-boundary plasticity are excluded: they
  are learning-rule costs identical in both plans (the end-to-end ratio
  including them is recorded separately as
  ``train_batch_end_to_end_speedup``).
* **end-to-end ``train_batch``** (informational) — the full layer training
  loop including input validation and the competition rule, dense vs
  sparse.
* **serving** (the second gated number) —
  :class:`~repro.serving.StreamingPredictor` throughput over a large input,
  dense vs sparse.

The training batch size defaults to 32 — the online/streaming regime this
system is named for, where the batch-size-independent refresh dominates the
per-batch cost and the packed refresh pays the most — and serving streams
at batch 256 (the ``streaming_inference`` standard).  Ratios are intended
to be measured with BLAS pinned to one thread (the CI perf-gate job sets
``OPENBLAS_NUM_THREADS=1``): they then track kernel efficiency instead of
the runner's core count and stay comparable with the committed JSON.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Sequence

import numpy as np

from repro.instrumentation.pipeline_bench import _one_hot, _pinned_density_threshold

__all__ = ["measure_sparse_density_sweep", "SPARSE_SWEEP_DENSITIES"]

#: The densities the committed ``BENCH_kernels.json`` sweep publishes.
SPARSE_SWEEP_DENSITIES = (1.0, 0.5, 0.3, 0.1)


class _TraceBuffers:
    """Bare trace arrays matching the ProbabilityTraces layout."""

    def __init__(self, p_i, p_j, p_ij):
        self.p_i = p_i.copy()
        self.p_j = p_j.copy()
        self.p_ij = p_ij.copy()
        self.updates_seen = 0


def _time_loop(step, repeats: int, inner: int, warmup: int = 3) -> float:
    for _ in range(warmup):
        step()
    best = float("inf")
    for _ in range(int(repeats)):
        start = time.perf_counter()
        for _ in range(int(inner)):
            step()
        best = min(best, (time.perf_counter() - start) / int(inner))
    return best


def measure_sparse_density_sweep(
    densities: Sequence[float] = SPARSE_SWEEP_DENSITIES,
    train_batch_size: int = 32,
    serve_batch_size: int = 256,
    serve_samples: int = 8192,
    n_minicolumns: int = 300,
    n_input_hypercolumns: int = 28,
    bins: int = 10,
    repeats: int = 5,
    inner: int = 30,
    taupdt: float = 0.01,
    seed: int = 0,
    backend: Optional[str] = "numpy",
) -> Dict[str, object]:
    """Best-of-``repeats`` dense vs sparse timings across mask densities.

    Returns per-density fused-step seconds/batch (dense vs sparse), the
    end-to-end ``train_batch`` speedup, and serving rows/s (dense vs
    sparse) — the fused-step and serving speedups are the numbers the
    ``--check-sparse`` CI gate asserts at density 0.3.
    """
    from repro import kernels
    from repro.backend import get_backend
    from repro.core import BCPNNClassifier, Network
    from repro.core.hyperparams import BCPNNHyperParameters
    from repro.core.layers import InputSpec, StructuralPlasticityLayer
    from repro.datasets.stream import BatchStream
    from repro.engine import ExecutionPlan, LayerEngine

    input_spec = InputSpec.uniform(int(n_input_hypercolumns), int(bins))
    input_sizes = list(input_spec.hypercolumn_sizes)
    n_input = input_spec.n_units
    hidden_sizes = [int(n_minicolumns)]
    n_hidden = int(n_minicolumns)
    B = int(train_batch_size)
    x_train = _one_hot(B, input_sizes, seed=seed + 1)
    x_epoch = _one_hot(2048, input_sizes, seed=seed + 5)
    x_serve = _one_hot(int(serve_samples), input_sizes, seed=seed + 2)
    compute = get_backend(backend)

    def layer_mask(density: float) -> np.ndarray:
        rng = np.random.default_rng(seed + 3)
        n_active = max(1, int(round(float(density) * int(n_input_hypercolumns))))
        n_active = min(n_active, int(n_input_hypercolumns))
        mask_hc = np.zeros((int(n_input_hypercolumns), 1))
        mask_hc[rng.choice(int(n_input_hypercolumns), n_active, replace=False), 0] = 1.0
        return mask_hc

    def fused_step_seconds(density: float):
        """Dense vs sparse seconds of the complete fused training step."""
        mask_hc = layer_mask(density)
        mask = kernels.expand_mask(mask_hc, input_sizes, hidden_sizes)
        layout = kernels.SparseLayout(mask_hc, input_sizes, hidden_sizes)
        p_i = x_train.mean(axis=0) + 1e-3
        p_j = np.full(n_hidden, 1.0 / n_hidden)
        p_ij = np.outer(p_i, p_j)

        dense_traces = _TraceBuffers(p_i, p_j, p_ij)
        # One plan for both engines: the sparse one runs gather-GEMMs because
        # it is handed the packed bundle.
        plan = ExecutionPlan(n_input, tuple(hidden_sizes), B)
        dense_engine = LayerEngine(compute, plan)
        weight_buf = np.empty((n_input, n_hidden))
        bias_buf = np.empty(n_hidden)

        def dense_step():
            compute.traces_to_weights(
                dense_traces.p_i, dense_traces.p_j, dense_traces.p_ij,
                out_weights=weight_buf, out_bias=bias_buf,
            )
            dense_engine.note_weights_refreshed()
            dense_engine.fused_update(
                x_train, weight_buf, bias_buf, mask, 1.0, dense_traces, taupdt
            )

        sparse_traces = _TraceBuffers(p_i, p_j, p_ij)
        sparse_engine = LayerEngine(compute, plan)
        packed_flat = np.empty(layout.packed_size)
        packed_blocks = layout.block_views(packed_flat)
        sparse_bias = np.empty(n_hidden)
        bundle = kernels.SparseWeights(layout, packed_blocks, packed_flat)

        def sparse_step():
            compute.pack_weights(
                sparse_traces.p_i, sparse_traces.p_j, sparse_traces.p_ij, layout,
                out_blocks=packed_blocks, out_bias=sparse_bias,
            )
            sparse_engine.note_weights_refreshed()
            sparse_engine.fused_update(
                x_train, None, sparse_bias, mask, 1.0, sparse_traces, taupdt,
                sparse=bundle,
            )

        # Interleave the timing repeats so load drift hits both sides alike.
        dense_best = sparse_best = float("inf")
        _time_loop(dense_step, repeats=1, inner=5)
        _time_loop(sparse_step, repeats=1, inner=5)
        for _ in range(int(repeats)):
            dense_best = min(dense_best, _time_loop(dense_step, 1, inner, warmup=0))
            sparse_best = min(sparse_best, _time_loop(sparse_step, 1, inner, warmup=0))
        return dense_best, sparse_best

    def train_batch_seconds(density: float) -> float:
        """End-to-end ``layer.train_batch`` loop (competition rule included)."""
        hyperparams = BCPNNHyperParameters(
            taupdt=float(taupdt), density=float(density), competition="softmax"
        )
        layer = StructuralPlasticityLayer(
            1, n_hidden, hyperparams=hyperparams, backend=backend, seed=seed
        )
        layer.build(input_spec)
        stream = BatchStream(
            x_epoch, batch_size=B, shuffle=True, rng=np.random.default_rng(seed + 4)
        )
        n_batches = -(-x_epoch.shape[0] // B)
        for batch in stream:  # warm up engines and the first-batch calibration
            layer.train_batch(batch.x)
        best = float("inf")
        for _ in range(int(repeats)):
            start = time.perf_counter()
            for batch in stream:
                layer.train_batch(batch.x)
            best = min(best, (time.perf_counter() - start) / n_batches)
        layer.flush_weights()
        return best

    def serve_rates(density: float):
        """Interleaved dense/sparse serving throughput for one density."""
        from repro.serving import StreamingPredictor

        predictors = {}
        for sparse, threshold in (("off", 0.0), ("on", 1.0)):
            network = Network(seed=seed, name=f"sparse-bench-{density:g}-{sparse}")
            network.add(
                StructuralPlasticityLayer(1, n_hidden, density=float(density), seed=seed + 4)
            )
            network.add(BCPNNClassifier(n_classes=2))
            # The plan is fixed when the layout compiles; serving never
            # changes the mask, so the pin need only span the build.
            with _pinned_density_threshold(threshold):
                network.build(input_spec)
            predictor = StreamingPredictor(
                network, batch_size=int(serve_batch_size), backend=backend
            )
            predictor.predict_stream(x_serve[: 2 * int(serve_batch_size)])  # warm up
            predictors[sparse] = predictor
        best = {"off": float("inf"), "on": float("inf")}
        # Interleave the repeats so machine-load drift hits both plans alike.
        for _ in range(int(repeats)):
            for sparse, predictor in predictors.items():
                start = time.perf_counter()
                predictor.predict_stream(x_serve)
                best[sparse] = min(best[sparse], time.perf_counter() - start)
        n = int(serve_samples)
        return n / max(best["off"], 1e-12), n / max(best["on"], 1e-12)

    rows = []
    for density in densities:
        dense_step, sparse_step = fused_step_seconds(density)
        with _pinned_density_threshold(0.0):
            e2e_dense = train_batch_seconds(density)
        with _pinned_density_threshold(1.0):
            e2e_sparse = train_batch_seconds(density)
        dense_serve, sparse_serve = serve_rates(density)
        rows.append(
            {
                "density": float(density),
                "dense_train_seconds_per_batch": dense_step,
                "sparse_train_seconds_per_batch": sparse_step,
                "train_speedup": dense_step / max(sparse_step, 1e-12),
                "train_batch_end_to_end_speedup": e2e_dense / max(e2e_sparse, 1e-12),
                "dense_serving_rows_per_second": dense_serve,
                "sparse_serving_rows_per_second": sparse_serve,
                "serving_speedup": sparse_serve / max(dense_serve, 1e-12),
            }
        )
    return {
        "config": {
            "n_input": n_input,
            "n_hidden": n_hidden,
            "train_batch_size": B,
            "serve_batch_size": int(serve_batch_size),
            "serve_samples": int(serve_samples),
            "repeats": int(repeats),
            "inner_iterations": int(inner),
            "taupdt": float(taupdt),
            "backend": backend or "numpy",
        },
        "densities": rows,
    }
