"""The benchmark's catalogue: workloads, metric names, units, directions, bounds.

``BENCHMARK.json`` at the repository root is :func:`benchmark_manifest`
rendered as JSON; a test holds the two — and the names a run emits — equal, so
the catalogue is the one place a name or a bound is written.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent

#: Seconds one run measures (the contract's ``run_seconds``).  Fits are fixed
#: work; the bulk-predict and serve stages stretch with ``--seconds``.
RUN_SECONDS = 24

#: Repeated units per run.  If a run has to get shorter, shrink
#: ``dataset.n_events`` in the workload file, never these.
FITS_PER_RUN = 3
SETUPS_PER_RUN = 3
MIN_PREDICT_PASSES = 10
MIN_SERVE_REQUESTS = 1000
WARMUP_REQUESTS = 200
SERVE_CONNECTIONS = 2  # = nproc on the box the bounds were set on
RELOAD_EVERY = 100


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Rows per ``POST /predict`` request.
    request_rows: int
    #: One bulk pass = this many back-to-back ``predict_stream`` calls over the
    #: test matrix (tiling by repetition, so one pass lasts >= 0.3 s without a
    #: k-fold copy of the matrix inflating ``peak_rss_mb``).
    predict_tile: int
    #: One connection posts ``/reload`` of the newest checkpoint every
    #: ``RELOAD_EVERY``-th request.
    reload: bool = False

    @property
    def config_path(self) -> Path:
        return HERE / "workloads" / f"{self.name}.yaml"


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "wide_serial",
        "4x300 MCU, density 0.3, one worker: the paper's capacity-bound regime; "
        "kernels do most of fit, comm/checkpoint nothing; 64-row requests make serving compute-bound",
        request_rows=64,
        predict_tile=4,
    ),
    Workload(
        "wide_process2",
        "same config and seed over process:2: fixed-size scaling efficiency against wide_serial; "
        "shm allreduce and backend.distributed appear while kernel work per rank halves",
        request_rows=64,
        predict_tile=4,
    ),
    Workload(
        "narrow_tcp2",
        "1x150 MCU, batch 32, tcp 2 ranks: per-batch overhead and hub-relay latency dominate, kernels do little; "
        "1-row requests never fill a batch, so serving runs the deadline/queue path",
        request_rows=1,
        predict_tile=17,
    ),
    Workload(
        "dense_pipelined_ckpt",
        "4x300 at density 1.0, pipelined, checkpoint every epoch, /reload while serving: dense support, "
        "engine overlap, writes beside training and hot-swap beside reads - same layers used differently",
        request_rows=64,
        predict_tile=3,
        reload=True,
    ),
)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "higher" | "lower"
    #: Share of the parent's median by which the metric may worsen (end-to-end only).
    bound: float = 0.0


END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("fit_s", "s", "lower", 0.25),
    Metric("train_rows_per_s", "rows/s", "higher", 0.25),
    Metric("predict_rows_per_s", "rows/s", "higher", 0.20),
    Metric("serve_rows_per_s", "rows/s", "higher", 0.25),
    Metric("serve_p50_ms", "ms", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.15),
    Metric("test_auc", "auc", "higher", 0.15),
)

KERNEL_FUNCTIONS: Tuple[str, ...] = (
    "compute_support",
    "compute_support_sparse",
    "hidden_activations",
    "batch_outer_product",
    "ema_update",
    "pack_traces_to_weights",
    "mutual_information_scores",
)


def _per_layer() -> Tuple[Metric, ...]:
    rows: List[Metric] = [
        Metric("config.compose_s", "s", "lower"),
        Metric("datasets.prepare_s", "s", "lower"),
        Metric("datasets.encode_rows_per_s", "rows/s", "higher"),
        Metric("datasets.batch_gather_s", "s", "lower"),
        Metric("core.hidden_phase_s", "s", "lower"),
        Metric("core.head_phase_s", "s", "lower"),
        Metric("core.transform_s", "s", "lower"),
        Metric("core.head_train_batch_s", "s", "lower"),
        Metric("core.train_batch_self_s", "s", "lower"),
        Metric("core.end_epoch_s", "s", "lower"),
        Metric("engine.fused_update_self_s", "s", "lower"),
        Metric("engine.weight_refreshes", "count", "lower"),
        Metric("engine.forward_self_s", "s", "lower"),
        Metric("engine.pipeline_wait_s", "s", "lower"),
        Metric("backend.forward_into_self_s", "s", "lower"),
        Metric("backend.update_traces_self_s", "s", "lower"),
        Metric("backend.pack_weights_self_s", "s", "lower"),
        Metric("backend.distributed_train_layer_s", "s", "lower"),
        Metric("backend.distributed_overhead_s", "s", "lower"),
    ]
    for fn in KERNEL_FUNCTIONS:
        rows.append(Metric(f"kernels.{fn}_calls", "count", "lower"))
        rows.append(Metric(f"kernels.{fn}_self_s", "s", "lower"))
    rows += [
        Metric("kernels.flops_per_fit", "flop", "lower"),
        Metric("kernels.bytes_per_fit", "B", "lower"),
        Metric("kernels.achieved_gflops", "Gflop/s", "higher"),
        Metric("comm.startup_s", "s", "lower"),
        Metric("comm.allreduce_calls", "count", "lower"),
        Metric("comm.allreduce_bytes", "B", "lower"),
        Metric("comm.allreduce_wait_s", "s", "lower"),
        Metric("comm.bcast_s", "s", "lower"),
        Metric("comm.parallel_efficiency", "ratio", "higher"),
        Metric("checkpoint.saves", "count", "lower"),
        Metric("checkpoint.bytes_written", "B", "lower"),
        Metric("checkpoint.save_stall_s", "s", "lower"),
        Metric("checkpoint.commit_s", "s", "lower"),
        Metric("serving.requests_sent", "count", "higher"),
        Metric("serving.requests_ok", "count", "higher"),
        Metric("serving.requests_failed", "count", "lower"),
        Metric("serving.mean_batch_rows", "rows", "higher"),
        Metric("serving.flush_full", "count", "higher"),
        Metric("serving.flush_deadline", "count", "lower"),
        Metric("serving.run_batch_s", "s", "lower"),
        Metric("serving.predict_stream_s", "s", "lower"),
        Metric("serving.queue_wait_ms", "ms", "lower"),
        Metric("serving.http_overhead_ms", "ms", "lower"),
        Metric("serving.latency_tail_ms", "ms", "lower"),
        Metric("serving.latency_tail_percentile", "%", "higher"),
        Metric("serving.reloads", "count", "higher"),
        Metric("serving.reload_s", "s", "lower"),
        Metric("trace.overhead_ratio", "ratio", "lower"),
        Metric("trace.attributed_share", "ratio", "higher"),
    ]
    return tuple(rows)


PER_LAYER: Tuple[Metric, ...] = _per_layer()


def workload(name: str) -> Workload:
    for item in WORKLOADS:
        if item.name == name:
            return item
    raise KeyError(f"unknown workload {name!r}; known: {[w.name for w in WORKLOADS]}")


def units(metrics: Tuple[Metric, ...]) -> Dict[str, str]:
    return {m.name: m.unit for m in metrics}


def benchmark_manifest() -> Dict[str, object]:
    """The exact content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }
