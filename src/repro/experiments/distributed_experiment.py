"""Experiment E9: data-parallel training ablation over the comm transports.

BCPNN's local learning means data-parallel training only exchanges
probability-trace statistics (one packed allreduce per batch).  This
experiment trains the same hidden layer — the learning step ``Network.fit``
runs, with deterministic ``softmax`` competition — serially and with 2/4/8
ranks on a selectable :mod:`repro.comm` transport — in-process threads or OS
processes over tcp — and verifies that (a) the learned traces are numerically
equivalent and (b) the communication volume grows with the trace size, not
with the batch size — the property the paper uses to argue BCPNN "scales
horizontally without the limiting factor on communication" (Section II-B).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.backend.distributed import DistributedTrainer
from repro.comm import get_communicator
from repro.core import BCPNNHyperParameters, InputSpec, StructuralPlasticityLayer
from repro.experiments.config import ExperimentScale, get_scale
from repro.experiments.higgs_pipeline import HiggsData, prepare_higgs_data
from repro.instrumentation.reports import format_table
from repro.utils.logging import get_logger
from repro.utils.rng import as_rng

logger = get_logger(__name__)

__all__ = ["run_distributed_equivalence"]


def _fresh_layer(
    input_spec: InputSpec, n_minicolumns: int, seed: int, backend: str = "numpy"
) -> StructuralPlasticityLayer:
    hyperparams = BCPNNHyperParameters(taupdt=0.02, density=0.5, competition="softmax")
    layer = StructuralPlasticityLayer(
        n_hypercolumns=2, n_minicolumns=n_minicolumns, hyperparams=hyperparams,
        seed=seed, backend=backend,
    )
    layer.build(input_spec)
    return layer


def run_distributed_equivalence(
    rank_counts: Sequence[int] = (1, 2, 4),
    scale: Optional[ExperimentScale] = None,
    n_minicolumns: int = 30,
    epochs: int = 2,
    batch_size: int = 256,
    data: Optional[HiggsData] = None,
    seed: int = 0,
    backend: str = "numpy",
    transport: str = "thread",
    weight_refresh_tol: float = 0.0,
) -> Dict[str, object]:
    """Compare serial vs. rank-sharded training of one hidden layer.

    The competition rule is forced to the deterministic ``"softmax"`` mode so
    runs are comparable (the stochastic modes draw shard-shaped noise).
    Returns per-rank-count rows with the maximum trace
    deviation from the serial reference and the communication volume.
    ``backend`` selects the *compute* backend each rank uses for its local
    shard arithmetic; ``transport`` selects the :mod:`repro.comm` transport
    carrying the per-batch allreduce ("serial" is only valid for one rank,
    "thread" runs in-process ranks, "tcp" (or "process") OS processes).
    ``weight_refresh_tol`` exercises the rank-invariant stale-weights
    caching — every run (including the serial reference) uses the same
    tolerance, so the equivalence check also validates that the refresh
    decisions are rank-invariant.
    """
    scale = scale or get_scale()
    if data is None:
        data = prepare_higgs_data(n_events=min(scale.n_events, 6000), seed=seed)
    x = data.x_train
    input_spec = data.input_spec

    # Serial reference (single rank, trained through the same SPMD program).
    reference_layer = _fresh_layer(input_spec, n_minicolumns, seed=seed + 1, backend=backend)
    with get_communicator("serial") as reference_comm:
        DistributedTrainer(reference_comm).train_layer(
            reference_layer, x, epochs=epochs, batch_size=batch_size,
            rng=as_rng(seed + 2), shuffle=True, weight_refresh_tol=weight_refresh_tol,
        )

    rows: List[Dict[str, object]] = []
    for ranks in rank_counts:
        # A single rank needs no transport machinery; larger counts use the
        # requested transport (the factory rejects ranks > 1 on "serial").
        spec = "serial" if int(ranks) == 1 else transport
        comm = get_communicator(spec, ranks=int(ranks))
        try:
            layer = _fresh_layer(input_spec, n_minicolumns, seed=seed + 1, backend=backend)
            trainer = DistributedTrainer(comm)
            report = trainer.train_layer(
                layer, x, epochs=epochs, batch_size=batch_size,
                rng=as_rng(seed + 2), shuffle=True, weight_refresh_tol=weight_refresh_tol,
            )
            max_dev = float(
                max(
                    np.max(np.abs(layer.traces.p_i - reference_layer.traces.p_i)),
                    np.max(np.abs(layer.traces.p_j - reference_layer.traces.p_j)),
                    np.max(np.abs(layer.traces.p_ij - reference_layer.traces.p_ij)),
                )
            )
        finally:
            comm.close()
        rows.append(
            {
                "ranks": int(ranks),
                "transport": comm.transport,
                "max_trace_deviation": max_dev,
                "allreduce_calls": int(report.allreduce_calls),
                "mbytes_communicated": float(report.bytes_communicated) / 1e6,
                "global_batches": int(report.global_batches),
                "equivalent": bool(max_dev < 1e-8),
            }
        )
        logger.info(
            "distributed transport=%s ranks=%d max deviation=%.2e", comm.transport, ranks, max_dev
        )

    table = format_table(
        rows,
        columns=[
            "ranks",
            "transport",
            "max_trace_deviation",
            "allreduce_calls",
            "mbytes_communicated",
            "equivalent",
        ],
        precision=10,
        title="E9: data-parallel trace-reduction equivalence",
    )
    return {
        "experiment": "distributed_equivalence",
        "backend": backend,
        "transport": transport,
        "rows": rows,
        "table": table,
        "all_equivalent": all(r["equivalent"] for r in rows),
    }
