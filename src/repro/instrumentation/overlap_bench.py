"""Measurement of communication-overlapped data-parallel training.

Shared by ``benchmarks/bench_kernels.py`` (which records the result in the
``comm_overlap`` section of ``BENCH_kernels.json``; ``--check-committed``
holds it against drift).  The same Higgs-sized hidden layer is trained
through :class:`~repro.backend.distributed.DistributedTrainer` at two
ranks on the tcp transport, in the competitive mode ``Network.fit`` trains,
once with the blocking schedule (``comm_overlap="off"``) and once with the
software-pipelined schedule (``comm_overlap="on"``).  The layer competes
with the deterministic ``softmax`` rule, so both sides reduce the same
trace-sized statistics payload, and both run the same stale-weights
tolerance: the comparison isolates the communication schedule.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

import numpy as np

__all__ = ["measure_comm_overlap"]


def _train_once(
    comm,
    x: np.ndarray,
    input_spec,
    n_minicolumns: int,
    density: float,
    epochs: int,
    batch_size: int,
    weight_refresh_tol: float,
    comm_overlap: str,
    seed: int,
    backend: Optional[str],
):
    from repro.backend.distributed import DistributedTrainer
    from repro.core.hyperparams import BCPNNHyperParameters
    from repro.core.layers import StructuralPlasticityLayer

    hyperparams = BCPNNHyperParameters(
        taupdt=0.01, density=float(density), competition="softmax"
    )
    layer = StructuralPlasticityLayer(
        1, int(n_minicolumns), hyperparams=hyperparams, backend=backend, seed=seed
    )
    layer.build(input_spec)
    trainer = DistributedTrainer(comm)
    start = time.perf_counter()
    report = trainer.train_layer(
        layer,
        x,
        epochs=int(epochs),
        batch_size=int(batch_size),
        rng=np.random.default_rng(seed + 2),
        shuffle=True,
        weight_refresh_tol=float(weight_refresh_tol),
        comm_overlap=comm_overlap,
    )
    return time.perf_counter() - start, report


def measure_comm_overlap(
    n_samples: int = 4096,
    batch_size: int = 128,
    n_minicolumns: int = 300,
    n_input_hypercolumns: int = 28,
    bins: int = 10,
    density: float = 0.3,
    epochs: int = 2,
    repeats: int = 3,
    ranks: int = 2,
    weight_refresh_tol: float = 0.01,
    seed: int = 0,
    backend: Optional[str] = "numpy",
    timeout: float = 120.0,
) -> Dict[str, object]:
    """Best-of-``repeats`` seconds: blocking vs overlapped comm training.

    The blocking side waits on a synchronous allreduce every batch; the
    overlapped side issues the reduction nonblocking and computes the next
    batch before waiting.  Both sides run the identical stale-weights
    tolerance, payload and tcp transport at ``ranks`` ranks, so the
    speedup isolates the communication schedule.
    """
    from repro.comm import TCPComm
    from repro.core.layers import InputSpec

    input_spec = InputSpec.uniform(int(n_input_hypercolumns), int(bins))
    rng = np.random.default_rng(seed + 1)
    x = np.zeros((int(n_samples), input_spec.n_units))
    offset = 0
    for size in input_spec.hypercolumn_sizes:
        winners = rng.integers(0, size, size=int(n_samples))
        x[np.arange(int(n_samples)), offset + winners] = 1.0
        offset += size

    n_batches = max(1, -(-int(n_samples) // int(batch_size))) * int(epochs)

    comm = TCPComm(int(ranks), timeout=timeout)
    try:
        # Warm both paths once (BLAS pools, worker imports), then interleave
        # the repeats so machine-load drift hits both sides equally.
        common = dict(
            x=x, input_spec=input_spec, n_minicolumns=n_minicolumns,
            density=density, epochs=epochs, batch_size=batch_size,
            weight_refresh_tol=weight_refresh_tol, seed=seed, backend=backend,
        )
        _train_once(comm, comm_overlap="off", **common)
        _train_once(comm, comm_overlap="on", **common)
        blocking_times: List[float] = []
        overlapped_times: List[float] = []
        overlapped_report = None
        for _ in range(int(repeats)):
            elapsed, _ = _train_once(comm, comm_overlap="off", **common)
            blocking_times.append(elapsed)
            elapsed, overlapped_report = _train_once(comm, comm_overlap="on", **common)
            overlapped_times.append(elapsed)
    finally:
        comm.close()
    blocking_seconds = min(blocking_times)
    overlapped_seconds = min(overlapped_times)

    return {
        "config": {
            "n_input": input_spec.n_units,
            "n_hidden": int(n_minicolumns),
            "batch_size": int(batch_size),
            "n_samples": int(n_samples),
            "epochs": int(epochs),
            "repeats": int(repeats),
            "ranks": int(ranks),
            "density": float(density),
            "weight_refresh_tol": float(weight_refresh_tol),
            "competition": "softmax",
            "transport": "tcp",
            "backend": backend or "numpy",
        },
        "blocking_seconds_per_batch": blocking_seconds / n_batches,
        "overlapped_seconds_per_batch": overlapped_seconds / n_batches,
        "speedup": blocking_seconds / max(overlapped_seconds, 1e-12),
        "overlapped_iallreduce_calls": int(
            overlapped_report.extra["iallreduce_calls"]
        ),
        "batches": n_batches,
    }
