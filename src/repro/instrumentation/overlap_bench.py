"""Measurement of communication-overlapped data-parallel training.

Shared by ``benchmarks/bench_kernels.py`` (which records the result in the
``comm_overlap`` section of ``BENCH_kernels.json`` and gates CI on it via
``--check-overlap``).  Two measurements:

* **blocking vs overlapped** — the same Higgs-sized hidden layer trained
  through :class:`~repro.backend.distributed.DistributedTrainer` at two
  ranks on the tcp transport, once with the historical blocking
  schedule (``comm_overlap="off"``, dense payloads) and once with the
  software-pipelined schedule (``comm_overlap="on"`` + sparse-packed
  payloads on the frozen mask).  Both sides run the same stale-weights
  tolerance, so the comparison isolates the communication schedule;
* **dense vs sparse payload sweep** — the per-batch allreduce payload size
  with and without sparse packing at several mask densities, read from the
  training epoch logs (payload size is schedule-independent, so the sweep
  runs on the serial transport).

The mask is frozen for the whole run (``mask_update_period`` larger than
the epoch count), the regime sparse payloads are specified for.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

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
    sparse_payload: str,
    seed: int,
    backend: Optional[str],
):
    from repro.backend.distributed import DistributedTrainer
    from repro.core.hyperparams import BCPNNHyperParameters
    from repro.core.layers import StructuralPlasticityLayer

    hyperparams = BCPNNHyperParameters(
        taupdt=0.01, density=float(density), mask_update_period=10_000
    )
    layer = StructuralPlasticityLayer(
        1, int(n_minicolumns), hyperparams=hyperparams, backend=backend, seed=seed
    )
    layer.build(input_spec)
    trainer = DistributedTrainer(comm)
    calls_before = int(comm.collective_calls["iallreduce"])
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
        sparse_payload=sparse_payload,
    )
    elapsed = time.perf_counter() - start
    # Counters on a long-lived pool accumulate across runs; report the delta.
    report.extra["iallreduce_calls"] = (
        int(comm.collective_calls["iallreduce"]) - calls_before
    )
    return elapsed, report


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
    payload_densities: Sequence[float] = (1.0, 0.3),
    seed: int = 0,
    backend: Optional[str] = "numpy",
    timeout: float = 120.0,
) -> Dict[str, object]:
    """Best-of-``repeats`` seconds: blocking vs overlapped comm training.

    The blocking side is the historical schedule (synchronous dense
    allreduce every batch); the overlapped side issues the reduction
    nonblocking, computes the next batch before waiting, and packs only
    active-row statistics (the mask is frozen for the whole run).  Both
    sides run the identical stale-weights tolerance and the tcp
    transport at ``ranks`` ranks, so the speedup isolates the
    communication schedule + payload packing.
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
        _train_once(comm, comm_overlap="off", sparse_payload="off", **common)
        _train_once(comm, comm_overlap="on", sparse_payload="auto", **common)
        blocking_times: List[float] = []
        overlapped_times: List[float] = []
        overlapped_report = None
        for _ in range(int(repeats)):
            elapsed, _ = _train_once(
                comm, comm_overlap="off", sparse_payload="off", **common
            )
            blocking_times.append(elapsed)
            elapsed, overlapped_report = _train_once(
                comm, comm_overlap="on", sparse_payload="auto", **common
            )
            overlapped_times.append(elapsed)
    finally:
        comm.close()
    blocking_seconds = min(blocking_times)
    overlapped_seconds = min(overlapped_times)

    # Payload sweep: the packed allreduce length is schedule- and
    # transport-independent, so read it from serial-transport epoch logs.
    from repro.comm import SerialComm

    payload_rows: List[Dict[str, float]] = []
    for sweep_density in payload_densities:
        with SerialComm() as serial_comm:
            sweep = dict(common)
            sweep.update(density=sweep_density, epochs=1)
            _, dense_report = _train_once(
                serial_comm, comm_overlap="off", sparse_payload="off", **sweep
            )
        with SerialComm() as serial_comm:
            _, sparse_report = _train_once(
                serial_comm, comm_overlap="off", sparse_payload="on", **sweep
            )
        dense_floats = float(dense_report.extra["epoch_logs"][0]["payload_floats"])
        sparse_floats = float(sparse_report.extra["epoch_logs"][0]["payload_floats"])
        payload_rows.append(
            {
                "density": float(sweep_density),
                "dense_payload_floats": dense_floats,
                "sparse_payload_floats": sparse_floats,
                "payload_ratio": sparse_floats / max(dense_floats, 1.0),
                "sparse_engaged": float(
                    sparse_report.extra["epoch_logs"][0]["sparse_payload"]
                ),
            }
        )

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
        "payload_sweep": payload_rows,
    }
