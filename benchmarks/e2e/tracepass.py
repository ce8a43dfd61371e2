"""Which program functions the traced pass wraps, and the per-layer metrics.

Layer = ``src/repro`` package.  Everything here is applied from outside, at run
time: :func:`install` swaps the public entry points of each layer for
span-recording wrappers, :func:`layer_metrics` turns the spans and counters of
one traced pass into the ``per_layer`` values of the catalogue.  ``*_self_s``
values are self time (span minus child spans, same thread).
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from typing import Dict, Iterable, List, Set

import catalogue
import stats
from spans import Span, Tracer, self_times

BACKEND_METHODS = (
    "forward",
    "forward_into",
    "fused_update",
    "update_traces",
    "batch_statistics",
    "traces_to_weights",
    "pack_weights",
)
COMM_METHODS = ("allreduce", "iallreduce", "bcast", "barrier", "allgather", "run")
#: Spans whose time is waiting for other ranks rather than rank-0 work.
COMM_WAIT_SPANS = ("comm.allreduce", "comm.iallreduce", "comm.wait", "comm.barrier")


def _subclasses(cls: type) -> List[type]:
    found: List[type] = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def _wrap_methods(tracer: Tracer, classes: Iterable[type], methods: Iterable[str], prefix: str) -> None:
    for cls in classes:
        for method in methods:
            if method in cls.__dict__ and not getattr(
                cls.__dict__[method], "__isabstractmethod__", False
            ):
                tracer.wrap(cls, method, f"{prefix}.{method}")


def _wrap_function_everywhere(tracer: Tracer, func, name: str) -> None:
    """Wrap a module-level function in every ``repro`` module that holds a reference."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is func:
                tracer.wrap(module, attr, name)


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer (idempotent per tracer)."""
    from repro import kernels
    from repro.backend.base import Backend
    from repro.backend.distributed import DistributedTrainer
    from repro.checkpoint import CheckpointManager, TrainingCheckpointer
    from repro.comm.base import CommRequest, Communicator
    from repro.core.execution import BackendExecutionMixin
    from repro.core.heads import BCPNNClassifier, SGDClassifier
    from repro.core.layers import StructuralPlasticityLayer
    from repro.core.network import Network
    from repro.datasets.preprocessing import QuantileOneHotEncoder
    from repro.datasets.stream import BatchStream
    from repro.engine.pipeline import PipelineTask, mean_activation_entropy
    from repro.engine.plan import LayerEngine
    from repro.serving.predictor import StreamingPredictor
    from repro.serving.server import ModelRunner

    tracer.wrap(Network, "fit", "core.fit")
    tracer.wrap(Network, "transform", "core.transform")
    tracer.wrap(StructuralPlasticityLayer, "forward", "core.layer_forward")
    tracer.wrap(StructuralPlasticityLayer, "train_batch", "core.train_batch")
    tracer.wrap(StructuralPlasticityLayer, "end_epoch", "core.end_epoch")
    for head in (SGDClassifier, BCPNNClassifier):
        tracer.wrap(head, "train_batch", "core.head_train_batch")
        tracer.wrap(head, "predict", "core.head_predict")
    _wrap_function_everywhere(tracer, mean_activation_entropy, "core.entropy")

    _wrap_methods(tracer, [LayerEngine], ("forward", "fused_update", "update_traces"), "engine")
    tracer.wrap(BackendExecutionMixin, "refresh_weights", "engine.refresh_weights")
    tracer.wrap(BackendExecutionMixin, "flush_weights", "engine.flush_weights")
    tracer.wrap(PipelineTask, "result", "engine.pipeline_wait")

    _wrap_methods(tracer, [Backend] + _subclasses(Backend), BACKEND_METHODS, "backend")
    tracer.wrap(DistributedTrainer, "train_layer", "backend.distributed_train_layer")

    for fn_name, fn in inspect.getmembers(kernels, inspect.isfunction):
        if fn.__module__ == kernels.__name__ and not fn_name.startswith("_"):
            _wrap_function_everywhere(tracer, fn, f"kernels.{fn_name}")

    _wrap_methods(tracer, [Communicator] + _subclasses(Communicator), COMM_METHODS, "comm")
    _wrap_methods(tracer, _subclasses(CommRequest), ("wait",), "comm")

    tracer.wrap(TrainingCheckpointer, "save", "checkpoint.save")
    tracer.wrap(TrainingCheckpointer, "flush", "checkpoint.flush")
    tracer.wrap(
        CheckpointManager,
        "commit",
        "checkpoint.commit",
        measure=lambda args, kwargs, result: float(len(kwargs.get("data", args[2] if len(args) > 2 else b""))),
    )

    tracer.wrap(ModelRunner, "run_batch", "serving.run_batch")
    tracer.wrap(ModelRunner, "swap", "serving.swap")
    tracer.wrap(StreamingPredictor, "predict_stream", "serving.predict_stream")
    tracer.wrap(StreamingPredictor, "predict_proba_stream", "serving.predict_proba_stream")

    tracer.wrap_iteration(BatchStream, "datasets.batch_gather")
    tracer.wrap(
        QuantileOneHotEncoder,
        "transform",
        "datasets.encode",
        measure=lambda args, kwargs, result: float(result.shape[0]),
    )


def _median_duration(spans: List[Span]) -> float:
    return stats.median([s[3] - s[2] for s in spans]) if spans else 0.0


def layer_metrics(tracer: Tracer, facts: Dict[str, object]) -> Dict[str, float]:
    """Every ``per_layer`` metric of the catalogue from one traced pass.

    ``facts`` carries what spans cannot: epoch marks of the traced fit, the
    untraced baseline fit, communicator counter deltas, the cost model, and the
    load generator's and ``GET /metrics``' numbers.
    """
    spans = tracer.finished()
    selves = self_times(spans)
    names = {s[0]: s[1] for s in spans}

    fit_spans = tracer.select("core.fit", "fit")
    fit = fit_spans[-1] if fit_spans else None
    in_fit: Set[int] = {s[0] for s in tracer.descendants(fit[0])} if fit else set()
    fit_wall = (fit[3] - fit[2]) if fit else 0.0

    # One pass over the traced fit's spans: name -> [calls, total, self].
    in_fit_by_name: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for span in spans:
        if span[0] in in_fit:
            entry = in_fit_by_name[span[1]]
            entry[0] += 1
            entry[1] += span[3] - span[2]
            entry[2] += selves[span[0]]

    def fit_calls(name: str) -> float:
        return float(in_fit_by_name[name][0])

    def fit_total(name: str) -> float:
        return in_fit_by_name[name][1]

    def fit_self(*wanted: str) -> float:
        return sum(in_fit_by_name[name][2] for name in wanted)

    out: Dict[str, float] = {}

    # ------------------------------------------------------- config / datasets
    out["config.compose_s"] = _median_duration(tracer.select("config.compose", "setup"))
    out["datasets.prepare_s"] = _median_duration(tracer.select("datasets.prepare", "setup"))
    encode_s = tracer.total("datasets.encode", "setup")
    encode_rows = tracer.counter("datasets.encode.amount", "setup")
    out["datasets.encode_rows_per_s"] = encode_rows / encode_s if encode_s > 0 else 0.0
    out["datasets.batch_gather_s"] = fit_total("datasets.batch_gather")

    # -------------------------------------------------------------------- core
    marks = facts["epoch_marks"]
    begin = marks["begin"]
    hidden_end = max(marks["hidden"]) if marks["hidden"] else begin
    head_end = max(marks["classifier"]) if marks["classifier"] else hidden_end
    # The full-matrix forward between the phases is a direct child of the fit span.
    transform_s = sum(
        s[3] - s[2] for s in spans if fit and s[1] == "core.layer_forward" and s[4] == fit[0]
    )
    out["core.hidden_phase_s"] = hidden_end - begin
    out["core.transform_s"] = transform_s
    out["core.head_phase_s"] = max(head_end - hidden_end - transform_s, 0.0)
    out["core.head_train_batch_s"] = fit_total("core.head_train_batch")
    out["core.train_batch_self_s"] = fit_self("core.train_batch")
    out["core.end_epoch_s"] = fit_total("core.end_epoch")

    # ------------------------------------------------------------------ engine
    out["engine.fused_update_self_s"] = fit_self("engine.fused_update")
    out["engine.weight_refreshes"] = fit_calls("engine.refresh_weights")
    out["engine.forward_self_s"] = tracer.self_total(["engine.forward"], "predict")
    out["engine.pipeline_wait_s"] = fit_total("engine.pipeline_wait")

    # ----------------------------------------------------------------- backend
    out["backend.forward_into_self_s"] = fit_self("backend.forward_into")
    out["backend.update_traces_self_s"] = fit_self("backend.update_traces")
    out["backend.pack_weights_self_s"] = fit_self("backend.pack_weights")
    train_layer = [s for s in spans if s[0] in in_fit and s[1] == "backend.distributed_train_layer"]
    distributed_s = sum(s[3] - s[2] for s in train_layer)
    busy_or_waiting = 0.0
    for root in train_layer:
        for span in tracer.descendants(root[0]):
            if span[1].startswith("kernels.") or span[1] in COMM_WAIT_SPANS or span[1] == "comm.bcast":
                busy_or_waiting += selves[span[0]]
    out["backend.distributed_train_layer_s"] = distributed_s
    out["backend.distributed_overhead_s"] = max(distributed_s - busy_or_waiting, 0.0)

    # ----------------------------------------------------------------- kernels
    for fn in catalogue.KERNEL_FUNCTIONS:
        out[f"kernels.{fn}_calls"] = fit_calls(f"kernels.{fn}")
        out[f"kernels.{fn}_self_s"] = fit_self(f"kernels.{fn}")
    out["kernels.flops_per_fit"] = float(facts["flops_per_fit"])
    out["kernels.bytes_per_fit"] = float(facts["bytes_per_fit"])
    baseline_hidden_s = float(facts["baseline_hidden_s"])
    out["kernels.achieved_gflops"] = (
        float(facts["flops_per_fit"]) / baseline_hidden_s / 1e9 if baseline_hidden_s > 0 else 0.0
    )

    # -------------------------------------------------------------------- comm
    out["comm.startup_s"] = _median_duration(tracer.select("comm.startup", "setup"))
    out["comm.allreduce_calls"] = float(facts["allreduce_calls"])
    out["comm.allreduce_bytes"] = float(facts["allreduce_bytes"])
    out["comm.allreduce_wait_s"] = fit_self(*COMM_WAIT_SPANS)
    out["comm.bcast_s"] = fit_self("comm.bcast")
    out["comm.parallel_efficiency"] = float(facts["parallel_efficiency"])

    # -------------------------------------------------------------- checkpoint
    out["checkpoint.saves"] = fit_calls("checkpoint.save")
    out["checkpoint.bytes_written"] = tracer.counter("checkpoint.commit.amount", "fit")
    out["checkpoint.save_stall_s"] = sum(
        s[3] - s[2]
        for s in spans
        if s[0] in in_fit
        and s[1] in ("checkpoint.save", "checkpoint.flush")
        and names.get(s[4]) != "checkpoint.save"
    )
    # Commits run on the writer thread, so they are not descendants of the fit span.
    out["checkpoint.commit_s"] = tracer.total("checkpoint.commit", "fit")

    # ----------------------------------------------------------------- serving
    serve = facts["serve"]
    latencies = serve["latencies_ms"]
    p50 = stats.median(latencies) if latencies else 0.0
    run_batch = tracer.select("serving.run_batch", "serve")
    out["serving.requests_sent"] = float(serve["sent"])
    out["serving.requests_ok"] = float(serve["ok"])
    out["serving.requests_failed"] = float(serve["failed"])
    batcher = facts["server_metrics"].get("batcher", {})
    out["serving.mean_batch_rows"] = float(batcher.get("mean_batch_rows", 0.0))
    out["serving.flush_full"] = float(batcher.get("flush_full", 0))
    out["serving.flush_deadline"] = float(batcher.get("flush_deadline", 0))
    out["serving.run_batch_s"] = sum(s[3] - s[2] for s in run_batch)
    out["serving.predict_stream_s"] = tracer.total("serving.predict_stream", "predict")
    out["serving.queue_wait_ms"] = max(p50 - _median_duration(run_batch) * 1e3, 0.0)
    server_p50 = float(facts["server_metrics"].get("predict_latency_ms", {}).get("p50", 0.0))
    out["serving.http_overhead_ms"] = max(p50 - server_p50, 0.0)
    tail_pct, tail_ms = stats.tail(latencies)
    out["serving.latency_tail_ms"] = tail_ms
    out["serving.latency_tail_percentile"] = tail_pct
    out["serving.reloads"] = float(len(serve["reload_s"]))
    out["serving.reload_s"] = stats.median(serve["reload_s"]) if serve["reload_s"] else 0.0

    # ------------------------------------------------------------------- trace
    baseline_fit_s = float(facts["baseline_fit_s"])
    out["trace.overhead_ratio"] = fit_wall / baseline_fit_s if baseline_fit_s > 0 else 0.0
    out["trace.attributed_share"] = 1.0 - selves[fit[0]] / fit_wall if fit and fit_wall > 0 else 0.0
    # Exactly the catalogue's names, in its order (a missing one is a KeyError here).
    return {metric.name: out[metric.name] for metric in catalogue.PER_LAYER}
