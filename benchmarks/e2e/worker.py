"""One workload, one run, in this (fresh) process; started by ``run.py``.

Shape of a run (every workload)::

    setup        imports once, then SETUPS_PER_RUN x [compose_config ->
                 Scenario.prepare -> resolve_comm]          -> setup_s
    fit          FITS_PER_RUN x [train_and_evaluate on a fresh same-seed
                 network: Network.fit -> evaluate]           -> fit_s, train_rows_per_s, test_auc
    save/load    save_network -> load_network (+ newest checkpoint)
    predict      >= MIN_PREDICT_PASSES bulk passes of predict_stream
                                                             -> predict_rows_per_s
    serve        ServerThread, warm-up, closed-loop load generator process
                                                             -> serve_rows_per_s, serve_p50_ms

The communicator is built here and passed to ``fit`` as ``comm=``, so rank
spawn / rendezvous lands in ``setup_s`` and never in ``fit_s``.  Every output
is checked against ``Network.predict``; a mismatch is a failed operation.
Every timed unit is bracketed by calibration samples and reported in
calibrated seconds (``calibration``); raw walls stay in ``details``.

With ``--trace 1`` the same stages run once more with the program's public
entry points wrapped (``tracepass``): two untraced fits (cold, baseline), one
traced fit, a fixed number of predict passes and a short serve stage.  The
end-to-end metrics are never taken from a traced run.

The module top imports only the standard library: rank children spawned by the
``process``/``tcp`` transports re-import it as ``__mp_main__``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
SCRATCH_ROOT = Path(".benchmarks") / "e2e"
AUC_AGREEMENT = 1e-9
AUC_REFERENCE_TOLERANCE = 0.005
LOADGEN_TIMEOUT_MARGIN_S = 60.0
REQUEST_POOL = 256


class Ledger:
    """Operations attempted / failed, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def record(self, ok: bool, what: str, attempted: int = 1, failed: Optional[int] = None) -> None:
        """Count ``attempted`` operations; ``failed`` defaults to all or none by ``ok``."""
        if failed is None:
            failed = 0 if ok else attempted
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.failures) < 20:
            self.failures.append(what)


@dataclass
class Context:
    """What every stage of one run shares."""

    args: argparse.Namespace
    spec: object  # catalogue.Workload
    tracer: object  # spans.Tracer
    calibrator: object  # calibration.Calibrator
    scratch: Path
    ledger: Ledger = field(default_factory=Ledger)
    details: Dict[str, object] = field(default_factory=dict)

    @property
    def tracing(self) -> bool:
        return bool(self.args.trace)

    @property
    def quick(self) -> bool:
        return bool(self.args.quick)


def _make_epoch_marks():
    """A ``TrainingCallback`` noting when each epoch ended and how long the
    program says it took (the only place the comm paths report epoch walls:
    their callbacks fire after the SPMD program returns)."""
    from repro.core.training import TrainingCallback

    class EpochMarks(TrainingCallback):
        def __init__(self) -> None:
            self.begin = 0.0
            self.ends: Dict[str, List[float]] = {"hidden": [], "classifier": []}
            self.durations: Dict[str, List[float]] = {"hidden": [], "classifier": []}

        def on_train_begin(self, network) -> None:
            self.begin = time.perf_counter()

        def on_epoch_end(self, context) -> None:
            phase = str(context["phase"])
            self.ends.setdefault(phase, []).append(time.perf_counter())
            record = context["network"].history.records[-1]
            self.durations.setdefault(phase, []).append(float(record.duration_seconds))

        def marks(self) -> Dict[str, object]:
            return {"begin": self.begin, **self.ends}

    return EpochMarks()


def _comm_counters(comm) -> Dict[str, int]:
    if comm is None:
        return {"calls": 0, "bytes": 0}
    calls = comm.collective_calls
    return {
        "calls": int(calls.get("allreduce", 0)) + int(calls.get("iallreduce", 0)),
        "bytes": int(comm.bytes_communicated),
    }


def _steal_seconds() -> List[float]:
    """Seconds each vCPU has been stolen by the hypervisor since boot (empty if unknown)."""
    out: List[float] = []
    try:
        with open("/proc/stat", encoding="utf-8") as handle:
            for line in handle:
                fields = line.split()
                if fields[0].startswith("cpu") and fields[0] != "cpu" and len(fields) > 8:
                    out.append(int(fields[8]) / os.sysconf("SC_CLK_TCK"))
    except OSError:
        pass
    return out


def _steal_since(start: List[float]) -> List[float]:
    return [now - then for then, now in zip(start, _steal_seconds())]


def _peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _reference_auc(workload: str, seed: int) -> Optional[float]:
    with open(HERE / "reference.json", encoding="utf-8") as handle:
        table = json.load(handle)
    value = table.get("test_auc", {}).get(workload, {}).get(str(seed))
    return None if value is None else float(value)


# --------------------------------------------------------------------- stages
def setup_stage(ctx: Context):
    """``(config, data, comm, setup_walls)``; the last repeat's objects are kept."""
    import catalogue
    from repro.comm.factory import resolve_comm
    from repro.config.loader import compose_config, load_config_file
    from repro.datasets.registry import get_scenario

    tracer = ctx.tracer
    tracer.enabled, tracer.stage = ctx.tracing, "setup"
    # --seed moves the data (and the request order); the model seed stays the
    # file's, or test_auc would swing 7% between seeds instead of 0.5%.
    overrides = {"dataset": {"seed": int(ctx.args.seed)}}
    walls: List[float] = []
    comm = None
    for _ in range(1 if ctx.quick else catalogue.SETUPS_PER_RUN):
        if comm is not None:
            comm.close()
        start = time.perf_counter()
        with tracer.span("config.compose"):
            config = compose_config(
                load_config_file(ctx.spec.config_path), overrides=overrides, quick=ctx.quick
            )
        with tracer.span("datasets.prepare"):
            data = get_scenario(config.dataset.scenario).prepare(
                config.dataset, seed=config.dataset_seed
            )
        with tracer.span("comm.startup"):
            comm = resolve_comm(config.training.comm, config.training.ranks)
        walls.append(time.perf_counter() - start)
    tracer.enabled = False
    return config, data, comm, walls


def fit_stage(ctx: Context, experiment, data, comm) -> Dict[str, object]:
    """FITS_PER_RUN fits on a fresh same-seed network each; the last one traced."""
    import calibration
    import catalogue
    import stats
    from repro.experiments.higgs_pipeline import train_and_evaluate

    tracer, cal = ctx.tracer, ctx.calibrator
    tracer.stage = "fit"

    def one_fit(index: int, with_comm):
        marks = _make_epoch_marks()
        fit_config = experiment
        if experiment.checkpoint_dir is not None:
            fit_config = experiment.replace(checkpoint_dir=str(ctx.scratch / f"ckpt-{index}"))
        result = train_and_evaluate(fit_config, data=data, callbacks=[marks], comm=with_comm)
        ctx.ledger.record(True, "fit")
        return result, marks, fit_config

    out: Dict[str, object] = {"walls": [], "hidden": [], "aucs": [], "k": [], "steal": []}
    sample = cal.sample()
    for index in range(catalogue.FITS_PER_RUN):
        # Traced pass: fit 0 is cold, fit 1 the untraced baseline, fit 2 traced.
        tracer.enabled = ctx.tracing and index == catalogue.FITS_PER_RUN - 1
        before = _comm_counters(comm)
        steal0 = _steal_seconds()
        result, marks, fit_config = one_fit(index, comm)
        out["steal"].append(_steal_since(steal0))
        tracer.enabled = False
        previous, sample = sample, cal.sample()
        out["walls"].append(float(result["train_seconds"]))
        out["hidden"].append(marks.durations["hidden"])
        out["aucs"].append(float(result["auc"]))
        out["k"].append(calibration.speed_factor([previous, sample]))
    after = _comm_counters(comm)
    out["traffic"] = {key: after[key] - before[key] for key in before}
    out["network"] = result["network"]
    out["marks"] = marks.marks()
    out["checkpoint_dir"] = fit_config.checkpoint_dir

    out["parallel_efficiency"] = 1.0  # one rank: by definition
    if ctx.tracing and comm is not None:
        # The same problem on one worker, for the fixed-size scaling figure.
        _, serial_marks, _ = one_fit(catalogue.FITS_PER_RUN, None)
        serial_epoch = stats.median(serial_marks.durations["hidden"])
        comm_epoch = stats.median(out["hidden"][0] + out["hidden"][1])
        out["parallel_efficiency"] = serial_epoch / (int(comm.size) * comm_epoch)
    return out


def check_stage(ctx: Context, fits: Dict[str, object], x_test, ranks: int):
    """AUC agreement and reference, save/load and checkpoint round trips.

    Returns ``(expected_labels, reload_path)``.
    """
    import numpy as np

    from repro.checkpoint import CheckpointManager, network_from_checkpoint
    from repro.core import load_network, save_network

    ledger, network, aucs = ctx.ledger, fits["network"], fits["aucs"]
    if ranks == 1:
        ledger.record(
            max(aucs) - min(aucs) <= AUC_AGREEMENT,
            f"same-seed serial fits disagree on AUC: {aucs}",
        )
    reference = None
    if ctx.args.check_reference and not ctx.quick:
        reference = _reference_auc(ctx.spec.name, int(ctx.args.seed))
    if reference is not None:
        ledger.record(
            abs(aucs[-1] - reference) <= AUC_REFERENCE_TOLERANCE,
            f"test_auc {aucs[-1]:.6f} is not within {AUC_REFERENCE_TOLERANCE} of "
            f"the reference {reference:.6f}",
        )
    ctx.details.update(aucs=aucs, auc_spread=max(aucs) - min(aucs), auc_reference=reference)

    expected = network.predict(x_test)
    model_path = ctx.scratch / "model.npz"
    save_network(network, model_path)
    ledger.record(
        bool(np.array_equal(load_network(model_path).predict(x_test), expected)),
        "load_network(save_network(net)) predicts differently",
    )
    reload_path = None
    if fits["checkpoint_dir"] is not None:
        newest = CheckpointManager(fits["checkpoint_dir"]).latest_path()
        ok = newest is not None and np.array_equal(
            network_from_checkpoint(newest).predict(x_test), expected
        )
        ledger.record(bool(ok), f"newest checkpoint {newest} does not match the final network")
        reload_path = str(newest)
    return expected, reload_path


def predict_stage(ctx: Context, network, x_test, expected) -> Dict[str, object]:
    """Bulk passes; one pass = ``predict_tile`` back-to-back ``predict_stream`` calls."""
    import numpy as np

    import calibration
    import catalogue

    tracer, cal, spec = ctx.tracer, ctx.calibrator, ctx.spec
    tracer.stage = "predict"
    ctx.ledger.record(
        bool(np.array_equal(network.predict_stream(x_test), expected)),
        "predict_stream labels differ from Network.predict",
    )
    min_passes = 3 if ctx.quick else catalogue.MIN_PREDICT_PASSES
    budget_s = 0.0 if (ctx.tracing or ctx.quick) else float(ctx.args.seconds) / 8.0
    walls: List[float] = []
    factors: List[float] = []
    sample = cal.sample()
    stage_start = time.perf_counter()
    tracer.enabled = ctx.tracing
    while len(walls) < min_passes or time.perf_counter() - stage_start < budget_s:
        start = time.perf_counter()
        for _ in range(spec.predict_tile):
            labels = network.predict_stream(x_test)
        walls.append(time.perf_counter() - start)
        previous, sample = sample, cal.sample()
        factors.append(calibration.speed_factor([previous, sample]))
        ctx.ledger.record(bool(np.array_equal(labels, expected)), "bulk predict pass mislabelled")
    tracer.enabled = False
    return {"walls": walls, "k": factors, "rows": spec.predict_tile * int(x_test.shape[0])}


def serve_stage(ctx: Context, network, config, x_test, expected, reload_path) -> Dict[str, object]:
    """Serve over HTTP while ``loadgen.py`` drives a closed loop against it."""
    import numpy as np

    import calibration
    import catalogue
    from repro.config.runner import build_prediction_server
    from repro.serving.server import ServerThread

    tracer, cal, spec, scratch = ctx.tracer, ctx.calibrator, ctx.spec, ctx.scratch
    tracer.stage = "serve"
    plan = {
        "host": "127.0.0.1",
        "data_path": str(scratch / "requests.npz"),
        "result_path": str(scratch / "loadgen.json"),
        "request_rows": spec.request_rows,
        "pool": REQUEST_POOL,
        "seed": int(ctx.args.seed),
        "connections": catalogue.SERVE_CONNECTIONS,
        "seconds": float(ctx.args.seconds) / (6.0 if ctx.tracing else 3.0),
        "min_requests": catalogue.MIN_SERVE_REQUESTS // (4 if ctx.tracing else 1),
        "warmup_requests": catalogue.WARMUP_REQUESTS,
        "reload_path": reload_path if spec.reload else None,
        "reload_every": catalogue.RELOAD_EVERY,
    }
    if ctx.quick:
        plan.update(seconds=1.0, min_requests=50, warmup_requests=20, reload_every=10)
    np.savez(plan["data_path"], x=x_test, expected=expected)
    server = build_prediction_server(network, config.serving)
    with ServerThread(server) as handle:
        plan["port"] = handle.port
        plan_path = scratch / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        steal0 = _steal_seconds()
        tracer.enabled = ctx.tracing
        subprocess.run(
            [sys.executable, str(HERE / "loadgen.py"), str(plan_path)],
            check=True,
            timeout=plan["seconds"] + LOADGEN_TIMEOUT_MARGIN_S,
        )
        tracer.enabled = False
        steal = _steal_since(steal0)
        cal.sample()
        with urllib.request.urlopen(handle.url + "/metrics", timeout=10.0) as reply:
            server_metrics = json.loads(reply.read())
    serve = json.loads(Path(plan["result_path"]).read_text(encoding="utf-8"))
    ctx.ledger.record(
        serve["failed"] == 0 and serve["warmup_failed"] == 0,
        f"serving failures: {serve['errors']}",
        attempted=serve["sent"] + serve["warmup_sent"],
        failed=serve["failed"] + serve["warmup_failed"],
    )
    # A deadline flush keeps a request on the batcher's timer for the deadline;
    # that part of the latency does not run at machine speed.
    batcher = server_metrics.get("batcher", {})
    deadline_share = batcher.get("flush_deadline", 0) / max(batcher.get("batches", 0), 1)
    return {
        "loadgen": serve,
        "server_metrics": server_metrics,
        "steal": steal,
        # The stage is one long unit with nowhere to sample inside it, and two
        # samples around it scatter more than the latency does: use the whole
        # run's samples (fit and predict stages, and the one just taken).
        "k": calibration.speed_factor(cal.samples),
        "timer_wait_ms": deadline_share * float(config.serving.batch_deadline_ms),
    }


# ------------------------------------------------------------------------ run
def run(args: argparse.Namespace) -> Dict[str, object]:
    import hostenv

    load_at_start = hostenv.load_average()
    import calibration
    import catalogue
    import stats
    from repro.experiments.config import HiggsExperimentConfig
    from repro.instrumentation.flops import BCPNNCostModel
    from spans import Tracer

    boot_s = time.time() - args.spawned_at

    tracer = Tracer()
    if args.trace:
        import tracepass

        tracepass.install(tracer)
    scratch = SCRATCH_ROOT / f"run-{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    ctx = Context(args, catalogue.workload(args.workload), tracer, calibration.Calibrator(), scratch)
    comm = None
    try:
        config, data, comm, setup_walls = setup_stage(ctx)
        experiment = HiggsExperimentConfig.from_schema(config)
        ranks = int(comm.size) if comm is not None else 1

        fits = fit_stage(ctx, experiment, data, comm)
        if comm is not None:
            comm.close()
            comm = None
        rank_rss_mb = _peak_rss_mb(resource.RUSAGE_CHILDREN) if ranks > 1 else 0.0

        network, x_test = fits["network"], data.x_test
        expected, reload_path = check_stage(ctx, fits, x_test, ranks)
        predict = predict_stage(ctx, network, x_test, expected)
        serve = serve_stage(ctx, network, config, x_test, expected, reload_path)

        loadgen = serve["loadgen"]
        latencies = loadgen["latencies_ms"]
        p50_raw = stats.median(latencies)
        p50 = calibration.calibrated_latency_ms(p50_raw, serve["timer_wait_ms"], serve["k"])
        epochs = [wall / k for walls, k in zip(fits["hidden"], fits["k"]) for wall in walls]
        end_to_end = {
            "setup_s": boot_s + stats.median(setup_walls),
            "fit_s": stats.median([wall / k for wall, k in zip(fits["walls"], fits["k"])]),
            "train_rows_per_s": data.n_train / stats.median(epochs),
            "predict_rows_per_s": predict["rows"]
            / stats.median([wall / k for wall, k in zip(predict["walls"], predict["k"])]),
            # Closed loop: throughput moves with the latency, so it takes the same scaling.
            "serve_rows_per_s": loadgen["rows_ok"] / loadgen["wall_s"] * p50_raw / p50,
            "serve_p50_ms": p50,
            "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_SELF) + rank_rss_mb,
            "test_auc": fits["aucs"][-1],
        }
        tail_pct, tail_ms = stats.tail(latencies)
        ctx.details.update(
            n_train=data.n_train,
            n_test=data.n_test,
            ranks=ranks,
            boot_s=boot_s,
            setup_walls_s=setup_walls,
            fit_walls_s=fits["walls"],
            fit_speed_factors=fits["k"],
            fit_steal_s=fits["steal"],
            serve_steal_s=serve["steal"],
            serve_speed_factor=serve["k"],
            serve_timer_wait_ms=serve["timer_wait_ms"],
            serve_p50_raw_ms=p50_raw,
            hidden_epoch_walls_s=[wall for walls in fits["hidden"] for wall in walls],
            predict_pass_walls_s=predict["walls"],
            predict_speed_factors=predict["k"],
            predict_pass_rows=predict["rows"],
            serve={key: value for key, value in loadgen.items() if key != "latencies_ms"},
            serve_latency_samples=len(latencies),
            serve_latency_tail={"percentile": tail_pct, "ms": tail_ms},
            server_metrics=serve["server_metrics"],
            calibration_samples_s=ctx.calibrator.samples,
            calibration_reference_s=calibration.REFERENCE_S,
        )
        metrics: Dict[str, float] = {m.name: end_to_end[m.name] for m in catalogue.END_TO_END}
        if ctx.tracing:
            cost = BCPNNCostModel(
                n_input_units=int(data.x_train.shape[1]),
                n_hypercolumns=experiment.n_hypercolumns,
                n_minicolumns=experiment.n_minicolumns,
                batch_size=experiment.batch_size,
                density=experiment.density,
                sparse_gemm=experiment.density < 1.0,
            ).epoch_cost(data.n_train)
            facts = {
                "epoch_marks": fits["marks"],
                "baseline_fit_s": fits["walls"][1],
                "baseline_hidden_s": sum(fits["hidden"][1]),
                "flops_per_fit": cost.total_flops * experiment.hidden_epochs,
                "bytes_per_fit": cost.bytes_touched * experiment.hidden_epochs,
                "allreduce_calls": fits["traffic"]["calls"],
                "allreduce_bytes": fits["traffic"]["bytes"],
                "parallel_efficiency": fits["parallel_efficiency"],
                "serve": loadgen,
                "server_metrics": serve["server_metrics"],
            }
            metrics = tracepass.layer_metrics(tracer, facts)
            ctx.details["end_to_end_while_traced"] = end_to_end
            ctx.details["computed_not_measured"] = ["kernels.flops_per_fit", "kernels.bytes_per_fit"]
            tracer.dump(
                SCRATCH_ROOT / f"trace-{ctx.spec.name}.json",
                {"workload": ctx.spec.name, "seed": int(args.seed), "per_layer": metrics},
            )
        return {
            "workload": ctx.spec.name,
            "seed": int(args.seed),
            "seconds": float(args.seconds),
            "trace": ctx.tracing,
            "quick": ctx.quick,
            "correct": ctx.ledger.failed == 0,
            "ops_attempted": ctx.ledger.attempted,
            "ops_failed": ctx.ledger.failed,
            "failures": ctx.ledger.failures,
            "metrics": metrics,
            "details": ctx.details,
            "host": hostenv.host_facts(load_at_start),
        }
    finally:
        if comm is not None:
            comm.close()
        tracer.restore()
        shutil.rmtree(scratch, ignore_errors=True)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-reference", type=int, choices=(0, 1), default=1)
    parser.add_argument("--spawned-at", type=float, default=time.time())
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    result = run(args)
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
