"""Command-line interface.

Six entry points are installed (see ``pyproject.toml``):

* ``repro-run``        — run experiments from declarative config files
                         (``repro run config.yaml``): scenario selection,
                         layered defaults, dotted ``--set`` overrides,
                         optional hyperopt search and serving — see
                         ``docs/configs.md``.
* ``repro-train``      — train one Higgs classifier and print accuracy/AUC;
                         ``repro train --FLAG V`` runs what ``repro run
                         --set PATH=V`` runs (:data:`TRAIN_FLAGS`).
* ``repro-sweep``      — run a paper experiment sweep (capacity, receptive
                         field, related work, precision, distributed).
* ``repro-benchmark``  — print the analytical BCPNN cost model and time the
                         compute backends on a representative kernel.
* ``repro-predict``    — streaming bulk inference with a saved model
                         (train one with ``repro-train --save-model``):
                         CSV/npz in, predictions (or probabilities) out, on
                         any registered backend.  The feature file is read
                         into memory once; all *layer-sized* intermediates
                         stay O(batch) regardless of input length.
* ``repro-serve``      — the online request-facing counterpart of
                         ``repro-predict``: an HTTP/JSON endpoint
                         (``POST /predict``, ``GET /healthz``,
                         ``GET /metrics``, ``POST /reload``) that coalesces
                         concurrent requests into micro-batches through the
                         same engine workspaces (see ``docs/serving.md``).

All are also reachable as ``python -m repro.cli <command>``, and all except
``serve`` accept ``--json PATH`` to additionally write the results as a
JSON report.

``train``, ``sweep`` and ``benchmark`` additionally accept ``--comm SPEC``
— a transport spec such as ``serial``, ``thread:4``,
``tcp://host:port?ranks=8`` (sockets, multi-host; ``process:4`` is 4 ranks
on loopback tcp) — to run data-parallel training / the comm-throughput
benchmark over a :mod:`repro.comm` transport.  The rank count is part of
the spec.  ``predict`` and ``serve`` have one path each: the plain tile
loop in the calling process.
``--comm help`` prints the capability table (multihost / fault-tolerant
per transport).  Training over a fault-tolerant transport (tcp,
``process:N`` included) recovers from crashed ranks mid-run with no flag;
crashes are injected through ``REPRO_FAULTS`` (see :mod:`repro.faults`).

``train``, ``sweep`` and ``benchmark`` accept ``--pipeline`` (overlapped
double-buffered training loop; identical results) and
``--weight-refresh-tol TOL`` (stale-weights caching: skip the per-batch
``traces_to_weights`` refresh while the accumulated taupdt-scaled trace
drift stays under TOL; 0 = exact).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.utils.logging import enable_console_logging

__all__ = [
    "main_run",
    "main_train",
    "main_sweep",
    "main_benchmark",
    "main_predict",
    "main_serve",
    "main",
]


def _add_common(parser: argparse.ArgumentParser, seed: bool = True) -> None:
    if seed:
        parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument("--scale", choices=["small", "full"], default=None, help="experiment scale")
    parser.add_argument("--json", type=str, default=None, help="write results to this JSON file")
    parser.add_argument("--quiet", action="store_true", help="suppress progress logging")


_COMM_HELP = (
    "communicator transport spec for data-parallel execution: "
    "'serial', 'thread:N', 'tcp://host:port?ranks=N' (multi-host "
    "sockets) or 'process:N' (loopback tcp); pass 'help' to "
    "print the transport capability table and exit"
)


def _add_comm(parser: argparse.ArgumentParser) -> None:
    """``--comm``: select a repro.comm transport spec (rank count included)."""
    parser.add_argument("--comm", type=str, default=None, metavar="SPEC", help=_COMM_HELP)


def _backend_names() -> str:
    """The registered backends, for help texts."""
    from repro.backend import list_backends

    return ", ".join(list_backends())


def _print_comm_help() -> None:
    """The real transport table behind ``--comm help``."""
    from repro.comm import transport_capabilities
    from repro.instrumentation import format_table

    rows = []
    for name, caps in transport_capabilities().items():
        rows.append(
            {
                "transport": name,
                "example_spec": caps["spec"],
                "multihost": "yes" if caps["multihost"] else "no",
                "fault_tolerant": "yes" if caps["fault_tolerant"] else "no",
            }
        )
    print(format_table(rows, title="Available comm transports"))
    print(
        "Spec grammar: NAME[:RANKS] or tcp://HOST:PORT?ranks=N"
        "[&timeout=SEC&chunk_bytes=B&spawn=0|1]; process:N is "
        "tcp://127.0.0.1:0?ranks=N; see docs/distributed.md."
    )


_PIPELINE_HELP = (
    "overlapped training loop: double-buffered engine workspaces, "
    "prefetched batch gathers and off-thread monitoring reductions "
    "(identical results, different work schedule)"
)
_TOL_HELP = (
    "stale-weights tolerance: skip the per-batch traces_to_weights "
    "refresh while the accumulated taupdt-scaled trace drift stays "
    "under TOL (0 = refresh every batch, exact)"
)


def _add_pipeline(parser: argparse.ArgumentParser, default_tol: float = 0.0) -> None:
    """``--pipeline``/``--weight-refresh-tol``: pipelined training options."""
    # Exact flag names only: a prefix is an error, never a silent expansion.
    parser.allow_abbrev = False
    parser.add_argument("--pipeline", action="store_true", help=_PIPELINE_HELP)
    parser.add_argument(
        "--weight-refresh-tol",
        type=float,
        default=default_tol,
        metavar="TOL",
        help=f"{_TOL_HELP} (default {default_tol:g})",
    )


def _finish(result: Dict[str, object], args: argparse.Namespace) -> int:
    if args.json:
        from repro.instrumentation import dump_json_report

        sanitised = {
            k: v for k, v in result.items() if k not in ("network", "masks", "mask_evolution")
        }
        dump_json_report(sanitised, args.json)
    return 0


# ----------------------------------------------------------------- training
#: ``repro train``'s settings flags: (flag, dotted schema path, help).  A flag
#: takes its type from the schema field and has no default of its own, so
#: ``repro train --FLAG V`` composes exactly what ``repro run --set PATH=V``
#: does.  Boolean fields are switches that set ``true``.
TRAIN_FLAGS = (
    ("--hcus", "model.n_hypercolumns", "number of hidden hypercolumns"),
    ("--mcus", "model.n_minicolumns", "minicolumns per hypercolumn"),
    ("--density", "model.density", "receptive-field density"),
    ("--head", "model.head", "classification head: sgd or bcpnn"),
    ("--events", "dataset.n_events", "number of events"),
    ("--higgs-path", "dataset.params.path", "path to a real HIGGS.csv[.gz]"),
    ("--seed", "seed", "random seed"),
    ("--epochs", "training.hidden_epochs", "hidden-layer epochs"),
    ("--backend", "training.backend", "compute backend"),
    ("--comm", "training.comm", _COMM_HELP),
    ("--pipeline", "training.pipeline", _PIPELINE_HELP),
    ("--weight-refresh-tol", "training.weight_refresh_tol", _TOL_HELP),
    ("--checkpoint-dir", "training.checkpoint_dir", "write durable checkpoints into this dir"),
    ("--checkpoint-every", "training.checkpoint_every", "checkpoint every N epoch boundaries"),
    ("--checkpoint-keep", "training.checkpoint_keep", "keep the newest N checkpoints"),
    ("--resume", "training.resume", "resume bitwise from the latest checkpoint"),
)


def _train_parser() -> argparse.ArgumentParser:
    from repro.config.schema import field_type

    parser = argparse.ArgumentParser(
        prog="repro-train",
        description=(
            "Train a BCPNN Higgs classifier and report accuracy/AUC.  Every "
            "settings flag is a spelling of one config field (repro run --set "
            "PATH=VALUE); unset fields keep the schema defaults."
        ),
        allow_abbrev=False,
    )
    for flag, path, help_text in TRAIN_FLAGS:
        if path == "training.backend":
            help_text = f"{help_text} ({_backend_names()})"
        typ = field_type(path)
        kind = {"action": "store_const", "const": True} if typ is bool else {"type": typ}
        parser.add_argument(flag, default=argparse.SUPPRESS, help=f"{help_text} [{path}]", **kind)
    parser.add_argument(
        "--save-model",
        type=str,
        default=None,
        metavar="PATH",
        help="save the trained network as a .npz archive (consumed by repro-predict)",
    )
    _add_common(parser, seed=False)
    return parser


def _train_config(args: argparse.Namespace):
    """Compose the :class:`~repro.config.ExperimentConfig` a train invocation names.

    Layers: schema defaults < the ``--scale`` sizes < the given flags.
    """
    from repro.config import compose_config
    from repro.experiments import get_scale

    scale = get_scale(args.scale)
    sizes = {
        "dataset": {"n_events": scale.n_events},
        "training": {
            "hidden_epochs": scale.hidden_epochs,
            "classifier_epochs": scale.classifier_epochs,
            "batch_size": scale.batch_size,
        },
    }
    overrides: Dict[str, object] = {}
    for flag, path, _ in TRAIN_FLAGS:
        dest = flag[2:].replace("-", "_")
        if dest in args:
            *sections, leaf = path.split(".")
            node = overrides
            for section in sections:
                node = node.setdefault(section, {})
            node[leaf] = getattr(args, dest)
    return compose_config(sizes, overrides=overrides, source="repro train")


def main_train(argv: Optional[List[str]] = None) -> int:
    """Train a single Higgs classifier from the command line."""
    args = _train_parser().parse_args(argv)
    if getattr(args, "comm", None) == "help":
        _print_comm_help()
        return 0
    if not args.quiet:
        enable_console_logging()
    from repro.config import run_experiment

    result = run_experiment(_train_config(args))
    _summarize_run(result)
    if args.save_model:
        from repro.core import save_network

        saved = save_network(result["network"], args.save_model)
        print(f"saved model to {saved}")
        result["model_path"] = str(saved)
    return _finish(result, args)


# -------------------------------------------------------------------- sweeps
#: ``repro sweep`` experiments: the :mod:`repro.experiments` function each runs.
_SWEEPS = {
    "capacity": "run_capacity_sweep",
    "receptive-field": "run_receptive_field_sweep",
    "related-work": "run_related_work_comparison",
    "precision": "run_precision_ablation",
    "distributed": "run_distributed_equivalence",
}


def main_sweep(argv: Optional[List[str]] = None) -> int:
    """Run one of the paper's experiment sweeps."""
    parser = argparse.ArgumentParser(
        prog="repro-sweep", description="Run a paper experiment sweep and print its table."
    )
    parser.add_argument("experiment", choices=sorted(_SWEEPS), help="which experiment to run")
    parser.add_argument(
        "--backend",
        type=str,
        default="numpy",
        help=f"compute backend for the sweep ({_backend_names()})",
    )
    _add_common(parser)
    _add_comm(parser)
    _add_pipeline(parser)
    args = parser.parse_args(argv)
    if args.comm == "help":
        _print_comm_help()
        return 0
    if not args.quiet:
        enable_console_logging()
    from repro import experiments

    scale = experiments.get_scale(args.scale)
    runner = getattr(experiments, _SWEEPS[args.experiment])
    if args.experiment == "precision":
        # The precision ablation *is* a backend sweep; --backend is ignored
        # (and it measures numerics, so the pipeline flags do not apply).
        result = runner(scale=scale, seed=args.seed)
    elif args.experiment == "distributed":
        # The distributed sweep compares rank counts on one comm transport;
        # --comm picks the transport (its rank count caps the sweep).
        from repro.comm import parse_transport_spec

        spec = parse_transport_spec(args.comm) if args.comm else None
        kwargs = {"transport": spec.name if spec else "thread"}
        if spec is not None and spec.ranks is not None:
            kwargs["rank_counts"] = (1, int(spec.ranks))
        result = runner(
            scale=scale,
            seed=args.seed,
            backend=args.backend,
            weight_refresh_tol=args.weight_refresh_tol,
            **kwargs,
        )
    else:
        result = runner(
            scale=scale,
            seed=args.seed,
            backend=args.backend,
            pipeline=args.pipeline,
            weight_refresh_tol=args.weight_refresh_tol,
        )
    print(result["table"])
    return _finish(result, args)


# ---------------------------------------------------------------- benchmark
def main_benchmark(argv: Optional[List[str]] = None) -> int:
    """Print the analytical cost model and time the available backends."""
    parser = argparse.ArgumentParser(
        prog="repro-benchmark",
        description="Analytical BCPNN cost model plus backend kernel timings.",
    )
    parser.add_argument("--batch", type=int, default=256, help="batch size")
    parser.add_argument(
        "--inputs", type=int, default=280, help="input units (28 features x 10 bins)"
    )
    parser.add_argument("--mcus", type=int, default=300, help="minicolumns per hypercolumn")
    parser.add_argument("--hcus", type=int, default=4, help="hidden hypercolumns")
    parser.add_argument("--repeats", type=int, default=5, help="timing repetitions")
    _add_common(parser)
    _add_comm(parser)
    # The benchmark defaults to the standard stale-weights tolerance so the
    # pipelined table reflects the engine's shipped configuration; pass
    # --weight-refresh-tol 0 explicitly to time the exact (pure-scheduling)
    # pipelined mode.
    _add_pipeline(parser, default_tol=0.01)
    args = parser.parse_args(argv)
    if args.comm == "help":
        _print_comm_help()
        return 0
    if not args.quiet:
        enable_console_logging()
    from repro import kernels
    from repro.backend import get_backend
    from repro.engine import ExecutionPlan, LayerEngine
    from repro.instrumentation import BCPNNCostModel, RepeatTimer, format_table

    model = BCPNNCostModel(
        n_input_units=args.inputs,
        n_hypercolumns=args.hcus,
        n_minicolumns=args.mcus,
        batch_size=args.batch,
    )
    cost = model.batch_cost()
    print("Analytical per-batch cost (Section II-B):")
    print(format_table([cost.as_dict()], precision=1))

    rng = np.random.default_rng(args.seed)
    n_hidden = args.hcus * args.mcus
    x = rng.random((args.batch, args.inputs))
    weights = rng.normal(size=(args.inputs, n_hidden))
    bias = rng.normal(size=n_hidden)
    mask = np.ones((args.inputs, n_hidden))
    hidden_sizes = [args.mcus] * args.hcus

    rows = []
    for name in ("numpy", "float32", "float16"):
        backend = get_backend(name)
        timer = RepeatTimer(repeats=args.repeats, warmup=1)
        stats = timer.measure(lambda b=backend: b.forward(x, weights, bias, mask, hidden_sizes))
        rows.append(
            {
                "backend": name,
                "mean_seconds": stats.mean,
                "std_seconds": stats.std,
                "gflops_per_s": cost.support_gemm_flops / max(stats.mean, 1e-12) / 1e9,
            }
        )
    table = format_table(rows, precision=5, title="Forward-kernel timing by backend")
    print(table)

    # Fused streaming path vs the allocate-per-batch composition (engine win).
    plan = ExecutionPlan(
        n_input=args.inputs, hidden_sizes=tuple([args.mcus] * args.hcus), batch_size=args.batch
    )
    numpy_backend = get_backend("numpy")
    engine = LayerEngine(numpy_backend, plan)
    p_i = np.full(args.inputs, 1.0 / args.inputs)
    p_j = np.full(n_hidden, 1.0 / n_hidden)
    p_ij = np.outer(p_i, p_j)

    class _TraceView:
        def __init__(self):
            self.p_i, self.p_j, self.p_ij = p_i, p_j, p_ij
            self.updates_seen = 0

    traces = _TraceView()
    fused_timer = RepeatTimer(repeats=args.repeats, warmup=1)
    fused_stats = fused_timer.measure(
        lambda: engine.fused_update(x, weights, bias, mask, 1.0, traces, 0.01)
    )
    unfused_timer = RepeatTimer(repeats=args.repeats, warmup=1)

    def unfused_step():
        activations = numpy_backend.forward(x, weights, bias, mask, hidden_sizes)
        mean_x, mean_a, mean_outer = numpy_backend.batch_statistics(x, activations)
        kernels.ema_update(p_i, p_j, p_ij, mean_x, mean_a, mean_outer, 0.01)

    unfused_stats = unfused_timer.measure(unfused_step)
    fused_rows = [
        {"path": "unfused (allocate per batch)", "mean_seconds": unfused_stats.mean},
        {"path": "fused (preallocated workspace)", "mean_seconds": fused_stats.mean},
    ]
    fused_table = format_table(
        fused_rows, precision=6, title="Training-step dispatch: fused vs unfused"
    )
    print(fused_table)
    result = {
        "cost_model": cost.as_dict(),
        "backend_timings": rows,
        "fused_vs_unfused": fused_rows,
        "table": table + "\n" + fused_table,
    }

    # Pipelined training engine vs the serial fused loop (opted in with
    # --pipeline): double-buffered workspaces, prefetched gathers,
    # off-thread entropy and stale-weights caching at --weight-refresh-tol.
    if args.pipeline:
        from repro.instrumentation import measure_pipelined_training

        tol = args.weight_refresh_tol
        pipelined = measure_pipelined_training(
            batch_size=args.batch,
            n_minicolumns=args.mcus,
            repeats=max(2, args.repeats // 2),
            weight_refresh_tol=tol,
        )
        pipeline_rows = [
            {
                "path": "serial fused loop",
                "seconds_per_batch": pipelined["serial_seconds_per_batch"],
            },
            {
                "path": f"pipelined (tol={tol:g})",
                "seconds_per_batch": pipelined["pipelined_seconds_per_batch"],
            },
        ]
        pipeline_table = format_table(
            pipeline_rows,
            precision=6,
            title=f"Pipelined training ({pipelined['speedup']:.2f}x, "
            f"{pipelined['weight_refreshes']}/{pipelined['batches']} weight refreshes)",
        )
        print(pipeline_table)
        result["pipelined_training"] = pipelined
        result["table"] = result["table"] + "\n" + pipeline_table

    # Per-transport collective throughput (opted in with --comm): the
    # payload is the trace matrix one data-parallel batch allreduces.
    if args.comm is not None:
        from repro.comm.benchmark import measure_comm_throughput

        comm_result = measure_comm_throughput(
            transports=(args.comm,),
            shape=(args.inputs + 1, n_hidden),
            repeats=args.repeats * 4,
        )
        comm_table = format_table(
            comm_result["transports"],
            precision=6,
            title="Comm transport allreduce throughput",
        )
        print(comm_table)
        result["comm_throughput"] = comm_result
        result["table"] = result["table"] + "\n" + comm_table
    return _finish(result, args)


# ----------------------------------------------------------------- serving
def _load_feature_matrix(path: str) -> np.ndarray:
    """Load a 2-D feature matrix from a ``.npz``/``.npy`` archive or a CSV.

    ``.npz`` archives use the array under the key ``x`` (falling back to the
    single array when only one is stored); CSV/CSV.gz files are streamed
    through :func:`repro.datasets.csvio.read_numeric_csv`.  Archived arrays
    keep their stored dtype (a ``uint8`` one-hot matrix stays one byte per
    unit; the tile loop widens per tile), and a complex or string array is a
    :class:`~repro.exceptions.DataError` naming the file.
    """
    from repro.datasets.csvio import read_numeric_csv
    from repro.exceptions import DataError
    from repro.utils.validation import check_numeric_dtype

    p = Path(path)
    if not p.is_file():
        raise DataError(f"input file not found: {path}")
    # The handles are opened here: np.load leaks one it opens on a torn file.
    if p.suffix == ".npy":
        with open(p, "rb") as handle:
            return check_numeric_dtype(np.load(handle, allow_pickle=False), name=path)
    if p.suffix == ".npz":
        with open(p, "rb") as handle, np.load(handle, allow_pickle=False) as archive:
            if "x" in archive.files:
                key = "x"
            elif len(archive.files) == 1:
                key = archive.files[0]
            else:
                raise DataError(
                    f"{path} holds {len(archive.files)} arrays and none is named 'x'; "
                    "store the feature matrix under the key 'x'"
                )
            return check_numeric_dtype(archive[key], name=f"{path}[{key!r}]")
    return read_numeric_csv(p)


def main_predict(argv: Optional[List[str]] = None) -> int:
    """Streaming bulk inference: saved model + CSV/npz features -> predictions."""
    parser = argparse.ArgumentParser(
        prog="repro-predict",
        description=(
            "Stream a feature matrix through a saved network and write the "
            "predictions (optionally class probabilities).  The input file is "
            "loaded once; every layer-sized intermediate stays O(batch-size)."
        ),
    )
    parser.add_argument("input", type=str, help="feature matrix (.csv/.csv.gz/.npy/.npz)")
    parser.add_argument("--model", type=str, required=True, help="saved network (.npz)")
    parser.add_argument("--output", type=str, default=None, help="write predictions to this CSV")
    parser.add_argument(
        "--backend",
        type=str,
        default=None,
        help=(
            f"force one compute backend for the whole stack ({_backend_names()}); "
            "default: each layer's own resolved backend (the NumPy reference for loaded models)"
        ),
    )
    parser.add_argument("--batch-size", type=int, default=1024, help="rows per streamed batch")
    parser.add_argument("--proba", action="store_true", help="also emit class probabilities")
    _add_common(parser)
    args = parser.parse_args(argv)
    if not args.quiet:
        enable_console_logging()
    from repro.core import load_network
    from repro.datasets.csvio import write_numeric_csv
    from repro.serving import StreamingPredictor

    network = load_network(args.model)
    x = _load_feature_matrix(args.input)
    predictor = StreamingPredictor(network, batch_size=args.batch_size, backend=args.backend)

    start = time.perf_counter()
    if args.proba:
        proba = predictor.predict_proba_stream(x)
        predictions = np.argmax(proba, axis=1)
    else:
        proba = None
        predictions = predictor.predict_stream(x)
    elapsed = time.perf_counter() - start

    if args.output:
        if proba is not None:
            matrix = np.column_stack([predictions.astype(np.float64), proba])
            header = ["prediction"] + [f"p_class{c}" for c in range(proba.shape[1])]
        else:
            matrix = predictions.astype(np.float64)[:, None]
            header = ["prediction"]
        write_numeric_csv(args.output, matrix, header=header)

    rows_per_second = x.shape[0] / max(elapsed, 1e-9)
    print(
        f"predicted {x.shape[0]} rows in {elapsed:.3f}s "
        f"({rows_per_second:,.0f} rows/s, batch_size={args.batch_size}, "
        f"backend={predictor.backend.name}, "
        f"workspace={predictor.workspace_nbytes() / 1e6:.2f} MB)"
        + (f"; wrote {args.output}" if args.output else "")
    )
    result: Dict[str, object] = {
        "n_rows": int(x.shape[0]),
        "seconds": float(elapsed),
        "rows_per_second": float(rows_per_second),
        "batch_size": int(args.batch_size),
        "backend": predictor.backend.name,
        "workspace_bytes": int(predictor.workspace_nbytes()),
        "class_counts": {
            int(c): int(n) for c, n in zip(*np.unique(predictions, return_counts=True))
        },
        "output": args.output,
    }
    return _finish(result, args)


# ------------------------------------------------------------ online serving
def _serve_until_interrupted(server, banner: str) -> None:
    """Start ``server``, print ``banner``, block until SIGINT/SIGTERM, drain."""
    import asyncio

    async def run() -> None:
        await server.start()
        print(banner.format(url=server.url), flush=True)
        stop_event = asyncio.Event()
        loop = asyncio.get_running_loop()
        import signal

        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop_event.set)
            except (NotImplementedError, RuntimeError, ValueError):
                # Non-posix loops and non-main threads (tests) run without
                # signal-driven shutdown; Ctrl-C still lands as KeyboardInterrupt.
                pass
        try:
            await stop_event.wait()
        finally:
            print("draining...", flush=True)
            await server.stop(drain=True)

    asyncio.run(run())
    print("server stopped")


def main_serve(argv: Optional[List[str]] = None) -> int:
    """Serve a saved model over HTTP with micro-batched request coalescing."""
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description=(
            "Online serving endpoint: coalesce concurrent POST /predict "
            "requests into micro-batches (a batch leaves whenever the dispatch "
            "worker is free: at once on --batch-size rows, otherwise as soon as "
            "every request that has already arrived is queued; requests that "
            "arrive during a dispatch form the next batch) dispatched through "
            "preallocated engine workspaces.  GET /healthz and /metrics for "
            "operations, POST /reload for zero-downtime model hot-swap.  "
            "Runs until SIGINT/SIGTERM, then drains gracefully."
        ),
    )
    parser.add_argument("--model", type=str, required=True, help="saved network (.npz)")
    parser.add_argument("--host", type=str, default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8477, help="bind port (0 = ephemeral, printed at startup)"
    )
    parser.add_argument(
        "--batch-size", type=int, default=64, help="micro-batch flush threshold in rows"
    )
    parser.add_argument(
        "--batch-deadline-ms",
        type=float,
        default=5.0,
        help=(
            "longest a queued request may be held back for coalescing while new "
            "requests keep arriving (a cap, not a timer: an idle server answers at once)"
        ),
    )
    parser.add_argument(
        "--max-queue-rows",
        type=int,
        default=4096,
        help="admission-control bound on queued rows (503 + Retry-After beyond it)",
    )
    parser.add_argument(
        "--request-timeout-ms",
        type=float,
        default=None,
        help="per-request deadline in ms (504 on expiry; default: none)",
    )
    parser.add_argument(
        "--backend",
        type=str,
        default=None,
        help=(
            f"force one compute backend for the whole stack ({_backend_names()}); "
            "default: each layer's own resolved backend"
        ),
    )
    parser.add_argument("--quiet", action="store_true", help="suppress progress logging")
    args = parser.parse_args(argv)
    if not args.quiet:
        enable_console_logging()
    from repro.core import load_network
    from repro.serving import ModelRunner, PredictionServer

    network = load_network(args.model)
    runner = ModelRunner(network, batch_size=args.batch_size, backend=args.backend)
    server = PredictionServer(
        runner,
        host=args.host,
        port=args.port,
        batch_size=args.batch_size,
        batch_deadline=args.batch_deadline_ms / 1e3,
        max_queue_rows=args.max_queue_rows,
        request_timeout=(
            args.request_timeout_ms / 1e3 if args.request_timeout_ms is not None else None
        ),
        model_path=args.model,
    )

    _serve_until_interrupted(
        server,
        f"serving {args.model} on {{url}}  "
        f"(batch_size={args.batch_size}, deadline={args.batch_deadline_ms:g}ms, "
        f"queue_bound={args.max_queue_rows} rows, "
        f"backend={server.runner._predictor.backend.name})",
    )
    return 0


# --------------------------------------------------------- declarative runs
def _summarize_run(result: Dict[str, object]) -> None:
    """One human line per completed ``repro run`` experiment."""
    scenario = result.get("scenario", "?")
    if "best_score" in result:  # hyperopt summary
        print(
            f"[{scenario}] hyperopt({result['algorithm']}): "
            f"best {result['metric']}={result['best_score']:.4f} "
            f"over {result['n_trials']} trials  best_params={result['best_params']}"
        )
        return
    comm = result.get("comm")
    ranks_note = f"  ranks={comm['ranks']} ({comm['transport']})" if comm else ""
    print(
        f"[{scenario}] accuracy={result['accuracy']:.4f}  auc={result['auc']:.4f}  "
        f"log_loss={result['log_loss']:.4f}  train_time={result['train_seconds']:.1f}s"
        + ranks_note
    )


def main_run(argv: Optional[List[str]] = None) -> int:
    """Run experiments from declarative config files (``repro run``)."""
    parser = argparse.ArgumentParser(
        prog="repro-run",
        description=(
            "Run experiments described by declarative config files.  Each "
            "config layers built-in defaults < the scenario's defaults < the "
            "file < dotted --set overrides, is validated against the typed "
            "schema, and then trains (repro-train's flags are a spelling of "
            "the same fields).  JSON configs always load; YAML needs PyYAML "
            "(pip install 'repro-bcpnn[yaml]').  See docs/configs.md."
        ),
    )
    parser.add_argument(
        "configs",
        nargs="*",
        help=(
            "experiment config files (.yaml/.yml/.json) and/or directories "
            "of them (a directory runs every config inside, sorted); "
            "none = pure scenario defaults"
        ),
    )
    parser.add_argument(
        "--scenario",
        type=str,
        default=None,
        help=(
            "scenario name (see --list-scenarios); wins over the file's "
            "dataset.scenario, loses to --set dataset.scenario=..."
        ),
    )
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help=(
            "dotted override, e.g. --set training.backend=float32 "
            "--set model.density=0.2 (highest precedence; repeatable)"
        ),
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: cap events/epochs/trials and disable serving",
    )
    parser.add_argument(
        "--list-scenarios", action="store_true", help="print the scenario catalog and exit"
    )
    parser.add_argument("--json", type=str, default=None, help="write results to this JSON file")
    parser.add_argument("--quiet", action="store_true", help="suppress progress logging")
    args = parser.parse_args(argv)
    from repro.config import (
        build_prediction_server,
        compose_config,
        load_config_file,
        parse_set_overrides,
        run_experiment,
    )
    from repro.datasets.registry import scenario_catalog
    from repro.exceptions import ConfigError
    from repro.instrumentation import format_table

    if args.list_scenarios:
        for entry in scenario_catalog():
            print(f"{entry['name']:>16}  [{entry['split']}]  {entry['description']}")
        return 0
    if not args.quiet:
        enable_console_logging()

    try:
        overrides = parse_set_overrides(args.overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    # A directory argument expands to every config file inside it (sorted),
    # so `repro run configs/` executes a whole suite in one invocation.
    directory_mode = False
    sources: List[str] = []
    for entry in args.configs:
        p = Path(entry)
        if p.is_dir():
            directory_mode = True
            found = sorted(
                str(q) for q in p.iterdir() if q.suffix.lower() in (".yaml", ".yml", ".json")
            )
            if not found:
                print(
                    f"config error: no config files (*.yaml/*.yml/*.json) in {entry}",
                    file=sys.stderr,
                )
                return 2
            sources.extend(found)
        else:
            sources.append(str(entry))
    if not sources:
        sources = ["<defaults>"]

    results: List[Dict[str, object]] = []
    failures: List[Dict[str, str]] = []
    for source in sources:
        try:
            raw = load_config_file(source) if source != "<defaults>" else {}
            config = compose_config(
                raw,
                overrides=overrides,
                scenario=args.scenario,
                quick=args.quick,
                source=source,
            )
            result = run_experiment(config)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            failures.append({"source": source, "error": str(exc)})
            continue
        result["source"] = source
        _summarize_run(result)
        results.append(result)
        if config.serving.enabled and "network" in result:
            server = build_prediction_server(result["network"], config.serving)
            _serve_until_interrupted(
                server,
                f"serving [{result['scenario']}] on {{url}}  "
                f"(batch_size={config.serving.batch_size}, "
                f"deadline={config.serving.batch_deadline_ms:g}ms, "
                f"queue_bound={config.serving.max_queue_rows} rows)",
            )

    if len(sources) > 1:
        summary_rows = []
        for r in results:
            summary_rows.append(
                {
                    "config": r["source"],
                    "scenario": r.get("scenario", "?"),
                    "status": "ok",
                    "accuracy": f"{r['accuracy']:.4f}" if "accuracy" in r else "-",
                    "auc": f"{r['auc']:.4f}" if "auc" in r else "-",
                    "train_s": f"{r['train_seconds']:.1f}" if "train_seconds" in r else "-",
                }
            )
        for f in failures:
            summary_rows.append(
                {
                    "config": f["source"],
                    "scenario": "-",
                    "status": "FAILED",
                    "accuracy": "-",
                    "auc": "-",
                    "train_s": "-",
                }
            )
        print(format_table(summary_rows, title=f"repro run: {len(results)}/{len(sources)} ok"))

    if args.json:
        from repro.instrumentation import dump_json_report

        sanitised = [
            {k: v for k, v in r.items() if k not in ("network", "masks", "mask_evolution")}
            for r in results
        ]
        if directory_mode or len(sources) > 1:
            report: object = sanitised + [
                {"source": f["source"], "error": f["error"], "failed": True} for f in failures
            ]
        else:
            report = sanitised[0] if len(sanitised) == 1 else {"runs": sanitised}
        dump_json_report(report, args.json)
    return 2 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    """Dispatch ``python -m repro.cli <run|train|sweep|benchmark|predict|serve> ...``."""
    argv = list(sys.argv[1:] if argv is None else argv)
    commands = {
        "run": main_run,
        "train": main_train,
        "sweep": main_sweep,
        "benchmark": main_benchmark,
        "predict": main_predict,
        "serve": main_serve,
    }
    usage = f"usage: python -m repro.cli {{{','.join(commands)}}} ..."
    if not argv:
        print(usage, file=sys.stderr)
        return 2
    if argv[0] in ("-h", "--help"):
        print(usage)
        return 0
    command, rest = argv[0], argv[1:]
    if command in commands:
        from repro.exceptions import ReproError

        try:
            return commands[command](rest)
        except ReproError as exc:
            # The CLI's error contract: a pathed one-line message and exit 2,
            # never a traceback.  Subcommand mains still *raise* (tests call
            # them directly); only the dispatcher renders.
            print(f"error: {exc}", file=sys.stderr)
            return 2
    print(f"unknown command {command!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
