"""Measurement of the pipelined training engine vs the serial fused loop.

Shared by ``benchmarks/bench_kernels.py`` (which records the result in the
``pipelined_training`` section of ``BENCH_kernels.json`` and gates CI on it)
and the ``repro-benchmark --pipeline`` CLI.  Both sides of the comparison
drive a real :class:`~repro.core.layers.StructuralPlasticityLayer` through a
real :class:`~repro.datasets.stream.BatchStream`:

* the **serial** side replicates ``Network._train_hidden_layer``'s
  non-pipelined inner loop exactly — synchronous gathers, one fused engine
  dispatch plus an unconditional weight refresh per batch, the entropy
  reduction inline;
* the **pipelined** side is the shipped
  :func:`repro.engine.pipeline.train_layer_pipelined` loop with
  double-buffered workspaces, prefetched gathers, the entropy reduction on
  the worker thread, and the engine's stale-weights caching at the
  configured ``weight_refresh_tol``.

The deterministic ``"softmax"`` competition keeps both runs comparable, and
each timing repeat trains a freshly built layer so trace state cannot leak
between repeats.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Optional

import numpy as np

from repro import kernels

__all__ = ["measure_pipelined_training"]


@contextmanager
def _pinned_density_threshold(value: float):
    """Hold ``kernels.SPARSE_DENSITY_THRESHOLD`` at ``value`` (0.0 = dense plan,
    1.0 = sparse plan) for every layout compiled inside the block."""
    saved = kernels.SPARSE_DENSITY_THRESHOLD
    kernels.SPARSE_DENSITY_THRESHOLD = float(value)
    try:
        yield
    finally:
        kernels.SPARSE_DENSITY_THRESHOLD = saved


def _one_hot(n_rows: int, sizes, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    x = np.zeros((n_rows, int(np.sum(sizes))))
    offset = 0
    for size in sizes:
        winners = rng.integers(0, size, size=n_rows)
        x[np.arange(n_rows), offset + winners] = 1.0
        offset += size
    return x


def measure_pipelined_training(
    n_samples: int = 4096,
    batch_size: int = 64,
    n_minicolumns: int = 300,
    n_input_hypercolumns: int = 28,
    bins: int = 10,
    epochs: int = 3,
    repeats: int = 4,
    weight_refresh_tol: float = 0.01,
    taupdt: float = 0.01,
    seed: int = 0,
    backend: Optional[str] = "numpy",
) -> Dict[str, object]:
    """Best-of-``repeats`` per-batch seconds: serial vs pipelined training.

    The default configuration is the Higgs-sized standard the rest of
    ``BENCH_kernels.json`` uses (280 input units, 1x300 hidden units) at a
    streaming batch size of 64: the per-batch ``traces_to_weights`` refresh
    is batch-size-independent, so the small-batch (online/streaming) regime
    is exactly where stale-weights caching pays — which is the regime this
    system is named for.  ``weight_refresh_tol`` and the batch size are part
    of the measured configuration and are recorded in the result, so the CI
    gate checks exactly the configuration the JSON publishes.
    """
    from repro.core.hyperparams import BCPNNHyperParameters
    from repro.core.layers import InputSpec, StructuralPlasticityLayer
    from repro.datasets.stream import BatchStream
    from repro.engine.pipeline import (
        helper_threads_available,
        mean_activation_entropy,
        train_layer_pipelined,
    )

    input_spec = InputSpec.uniform(int(n_input_hypercolumns), int(bins))
    x = _one_hot(int(n_samples), input_spec.hypercolumn_sizes, seed=seed + 1)
    hyperparams = BCPNNHyperParameters(
        taupdt=float(taupdt), density=0.5, competition="softmax"
    )

    def fresh_layer() -> StructuralPlasticityLayer:
        layer = StructuralPlasticityLayer(
            1, int(n_minicolumns), hyperparams=hyperparams, backend=backend, seed=seed
        )
        layer.build(input_spec)
        return layer

    n_batches = max(1, -(-int(n_samples) // int(batch_size))) * int(epochs)

    def run_serial() -> float:
        layer = fresh_layer()
        stream = BatchStream(
            x, batch_size=int(batch_size), shuffle=True, rng=np.random.default_rng(seed + 2)
        )
        start = time.perf_counter()
        for epoch in range(int(epochs)):
            entropies = []
            for batch in stream:
                activations = layer.train_batch(batch.x)
                entropies.append(mean_activation_entropy(activations))
            layer.end_epoch(epoch)
        return time.perf_counter() - start

    # The pipelined side mirrors exactly what TrainingSchedule(pipeline=True)
    # ships: helper threads (prefetch, entropy worker, double buffering)
    # only where they can genuinely overlap, the degenerate inline schedule
    # on single-core machines — plus stale-weights caching either way.
    overlap = helper_threads_available()

    def run_pipelined() -> float:
        layer = fresh_layer()
        layer.configure_execution(
            n_buffers=2 if overlap else 1, weight_refresh_tol=float(weight_refresh_tol)
        )
        stream = BatchStream(
            x,
            batch_size=int(batch_size),
            shuffle=True,
            rng=np.random.default_rng(seed + 2),
            prefetch=2 if overlap else 0,
        )
        start = time.perf_counter()
        train_layer_pipelined(layer, stream, int(epochs))
        elapsed = time.perf_counter() - start
        layer.flush_weights()
        return elapsed

    # The execution plan is pinned to dense: this benchmark isolates the
    # pipelined *scheduler* against the serial loop on one fixed plan (at
    # density 0.5 the sparse plan would otherwise shrink both sides' refresh
    # cost and with it the stale-weights headroom the section has tracked
    # since it was introduced).  The sparse plan has its own section
    # (``sparse_density_sweep``).  Plasticity recompiles the layout at
    # epoch ends, so the pin spans every run.
    with _pinned_density_threshold(0.0):
        # Warm up BLAS/thread pools once, then interleave the repeats
        # (serial, pipelined, serial, pipelined, ...) so a slow drift in
        # machine load hits both sides equally instead of biasing whichever
        # side runs last.
        run_serial()
        run_pipelined()
        serial_times = []
        pipelined_times = []
        for _ in range(int(repeats)):
            serial_times.append(run_serial())
            pipelined_times.append(run_pipelined())
        serial_seconds = min(serial_times)
        pipelined_seconds = min(pipelined_times)

        # Count the weight refreshes the stale-weights cache actually performed.
        probe = fresh_layer()
        probe.configure_execution(
            n_buffers=2 if overlap else 1, weight_refresh_tol=float(weight_refresh_tol)
        )
        stream = BatchStream(
            x, batch_size=int(batch_size), shuffle=True,
            rng=np.random.default_rng(seed + 2), prefetch=2 if overlap else 0,
        )
        before = probe.backend.stats.weight_updates
        train_layer_pipelined(probe, stream, int(epochs))
        probe.flush_weights()
        refreshes = int(probe.backend.stats.weight_updates - before)

    return {
        "config": {
            "n_input": input_spec.n_units,
            "n_hidden": int(n_minicolumns),
            "batch_size": int(batch_size),
            "n_samples": int(n_samples),
            "epochs": int(epochs),
            "repeats": int(repeats),
            "taupdt": float(taupdt),
            "weight_refresh_tol": float(weight_refresh_tol),
            "competition": "softmax",
            "backend": backend or "numpy",
            "helper_threads": bool(overlap),
        },
        "serial_seconds_per_batch": serial_seconds / n_batches,
        "pipelined_seconds_per_batch": pipelined_seconds / n_batches,
        "speedup": serial_seconds / max(pipelined_seconds, 1e-12),
        "weight_refreshes": refreshes,
        "batches": n_batches,
    }
