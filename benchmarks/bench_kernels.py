"""Microbenchmarks of the BCPNN kernels (Section II-B cost discussion).

These time the individual primitives the paper maps onto GEMMs — the masked
support product, the co-activation statistics, the trace-to-weight
conversion and the mutual-information reduction — at a Higgs-sized
configuration (280 input units, 1x300 hidden units, batch 256).

The module also compares the execution engine's *fused* training step
(one dispatch, preallocated workspace — :mod:`repro.engine`) against the
seed's allocate-per-batch composition of the same kernels, times that
fused step on every registered backend (``fused_training_backends``),
times the *pipelined* training engine against the serial fused loop
(``pipelined_training`` — double-buffered workspaces, prefetched gathers,
off-thread entropy, stale-weights caching; see
:func:`repro.instrumentation.measure_pipelined_training`), times the
*streaming inference* path (:mod:`repro.serving`) per backend, measures
per-transport allreduce throughput of the :mod:`repro.comm` communicator
subsystem (``comm_throughput``), measures *communication-overlapped*
data-parallel training against the blocking schedule at two process ranks
plus the dense-vs-sparse allreduce payload sweep (``comm_overlap`` — see
:func:`repro.instrumentation.measure_comm_overlap`), sweeps the *block-sparse execution plan*
against the dense fused path across mask densities
(``sparse_density_sweep`` — gather-GEMM + packed-slab refresh vs dense
masked GEMM + full refresh; see
:func:`repro.instrumentation.measure_sparse_density_sweep`), measures the
*online serving* endpoint under a closed-loop client population
(``serving_latency`` — p50/p99 request latency and saturation throughput
of the micro-batched ``repro serve`` HTTP path; see
:func:`repro.instrumentation.measure_serving_latency` — plus its
``request_decode`` row: one 64 x 280 request body through ``json.loads`` +
``np.asarray`` against the server's rows-first decoder), and emits the
machine-readable ``BENCH_kernels.json`` at the repository root so the perf
trajectory of every hot path is tracked from PR to PR
(``benchmarks/bench_history.py`` accumulates the run-over-run history in
CI).

Run standalone with ``python benchmarks/bench_kernels.py`` to regenerate
the JSON without pytest; ``--quick`` shrinks the measurement for CI smoke
use.  The CI perf gate runs the *full* configuration — the same one the
committed JSON publishes — with ``--check-speedup X`` (fused-vs-unfused
training-step speedup), ``--check-pipelined Y`` (pipelined-vs-serial
training speedup), ``--check-sparse Z`` (block-sparse training AND
serving speedups at density 0.3) and ``--check-overlap W``
(overlapped-vs-blocking comm training speedup AND the sparse payload
staying at or under half the dense payload at density 0.3) and
``--check-latency MS`` (saturated-phase p99 request latency at or under
MS milliseconds AND zero failed requests) and ``--check-comm-tcp R`` (tcp
allreduce at most R times the process transport's, at 2 ranks, on the
Higgs payload and both e2e payloads), each exiting
non-zero below its threshold, plus ``--check-committed PATH`` which fails when the committed
JSON's speedup ratios drift more than ``--drift-tol`` (default ±50%) from
the runner's fresh measurement — a stale or hand-edited committed JSON
cannot land.
"""

import argparse
import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro import kernels
from repro.backend import get_backend
from repro.engine import ExecutionPlan, LayerEngine

N_INPUT = 280
N_HIDDEN = 300
BATCH = 256
HIDDEN_SIZES = [N_HIDDEN]
INPUT_SIZES = [10] * 28

BENCH_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"


def _one_hot_rows(n_rows, seed=0):
    """Random per-hypercolumn one-hot rows matching ``INPUT_SIZES``."""
    rng = np.random.default_rng(seed)
    x = np.zeros((n_rows, N_INPUT))
    offset = 0
    for size in INPUT_SIZES:
        winners = rng.integers(0, size, size=n_rows)
        x[np.arange(n_rows), offset + winners] = 1.0
        offset += size
    return x


@pytest.fixture(scope="module")
def kernel_data():
    rng = np.random.default_rng(0)
    x = _one_hot_rows(BATCH, seed=0)
    weights = rng.normal(size=(N_INPUT, N_HIDDEN))
    bias = rng.normal(size=N_HIDDEN)
    mask = kernels.expand_mask(
        (rng.random((28, 1)) > 0.6).astype(float), INPUT_SIZES, HIDDEN_SIZES
    )
    activations = kernels.hidden_activations(
        kernels.compute_support(x, weights, bias, mask), HIDDEN_SIZES
    )
    p_i = x.mean(axis=0) + 1e-3
    p_j = activations.mean(axis=0) + 1e-3
    p_ij = (x.T @ activations) / BATCH + 1e-6
    return {
        "x": x, "weights": weights, "bias": bias, "mask": mask,
        "activations": activations, "p_i": p_i, "p_j": p_j, "p_ij": p_ij,
    }


@pytest.mark.benchmark(group="kernels")
def test_bench_support_gemm(benchmark, kernel_data):
    d = kernel_data
    result = benchmark(
        lambda: kernels.compute_support(d["x"], d["weights"], d["bias"], d["mask"])
    )
    assert result.shape == (BATCH, N_HIDDEN)


@pytest.mark.benchmark(group="kernels")
def test_bench_hidden_softmax(benchmark, kernel_data):
    d = kernel_data
    support = kernels.compute_support(d["x"], d["weights"], d["bias"], d["mask"])
    result = benchmark(lambda: kernels.hidden_activations(support, HIDDEN_SIZES))
    assert np.allclose(result.sum(axis=1), 1.0)


@pytest.mark.benchmark(group="kernels")
def test_bench_batch_statistics(benchmark, kernel_data):
    d = kernel_data
    mean_x, mean_a, mean_outer = benchmark(
        lambda: kernels.batch_outer_product(d["x"], d["activations"])
    )
    assert mean_outer.shape == (N_INPUT, N_HIDDEN)


@pytest.mark.benchmark(group="kernels")
def test_bench_traces_to_weights(benchmark, kernel_data):
    d = kernel_data
    weights, bias = benchmark(
        lambda: kernels.traces_to_weights(d["p_i"], d["p_j"], d["p_ij"])
    )
    assert weights.shape == (N_INPUT, N_HIDDEN)


@pytest.mark.benchmark(group="kernels")
def test_bench_mutual_information(benchmark, kernel_data):
    d = kernel_data
    scores = benchmark(
        lambda: kernels.mutual_information_scores(
            d["p_i"], d["p_j"], d["p_ij"], INPUT_SIZES, HIDDEN_SIZES
        )
    )
    assert scores.shape == (28, 1)


# --------------------------------------------------------------------------
# Fused streaming engine vs the seed's allocate-per-batch training step.
# --------------------------------------------------------------------------

class _TraceBuffers:
    """Bare trace arrays matching the ProbabilityTraces layout."""

    def __init__(self, p_i, p_j, p_ij):
        self.p_i = p_i.copy()
        self.p_j = p_j.copy()
        self.p_ij = p_ij.copy()
        self.updates_seen = 0


def _training_step_problem(seed=0):
    rng = np.random.default_rng(seed)
    x = _one_hot_rows(BATCH, seed=seed)
    mask = kernels.expand_mask(
        (rng.random((28, 1)) > 0.6).astype(float), INPUT_SIZES, HIDDEN_SIZES
    )
    p_i = x.mean(axis=0) + 1e-3
    p_j = np.full(N_HIDDEN, 1.0 / N_HIDDEN)
    p_ij = np.outer(p_i, p_j)
    return x, mask, p_i, p_j, p_ij


def _time_loop(step, repeats=5, inner=20, warmup=3):
    """Best-of-``repeats`` mean seconds per call over ``inner`` calls."""
    for _ in range(warmup):
        step()
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            step()
        timings.append((time.perf_counter() - start) / inner)
    return float(min(timings))


#: The default competition of :class:`repro.core.BCPNNHyperParameters`:
#: ``sample`` at noise 0.1, occupancy bias re-weighted from gain 1 to 0.
COMPETITION_NOISE = 0.1
COMPETITION_BIAS_DELTA = -1.0


def measure_fused_vs_unfused(repeats=5, inner=20):
    """Per-batch seconds of the fused workspace path vs the seed path.

    Both sides run the complete training step as ``train_batch`` runs it by
    default — weight refresh, forward, the ``sample`` competition,
    statistics, EMA trace update — with identical numerics
    (``bitwise_equal``: same draws from same-seed generators, same traces
    after the same number of steps).  The unfused side is the seed's
    composition: every intermediate allocated per batch, the competition as
    a chain of temporaries ending in a dense one-hot matrix, the statistics
    as a GEMM over it.  The fused side streams through one LayerEngine
    workspace, competes in place (:func:`repro.kernels.compete_into`) and
    counts the winners' co-activations instead of multiplying two one-hot
    matrices.
    """
    x, mask, p_i, p_j, p_ij = _training_step_problem()
    taupdt = 0.01
    backend = get_backend("numpy")
    rows = np.arange(BATCH)

    unfused_traces = _TraceBuffers(p_i, p_j, p_ij)
    unfused_rng = np.random.default_rng(0)

    def unfused_step():
        tr = unfused_traces
        weights, bias = kernels.traces_to_weights(tr.p_i, tr.p_j, tr.p_ij)
        activations = backend.forward(x, weights, bias, mask, HIDDEN_SIZES)
        logits = np.log(np.maximum(activations, 1e-12))
        logits = logits + COMPETITION_BIAS_DELTA * bias[None, :]
        logits = logits + unfused_rng.normal(0.0, 0.1 * COMPETITION_NOISE, size=logits.shape)
        probs = kernels.hidden_activations(logits, HIDDEN_SIZES)
        cdf = np.cumsum(probs / probs.sum(axis=1, keepdims=True), axis=1)
        picks = (unfused_rng.random((BATCH, 1)) > cdf).sum(axis=1)
        activity = np.zeros_like(probs)
        activity[rows, np.minimum(picks, N_HIDDEN - 1)] = 1.0
        mean_x, mean_a, mean_outer = backend.batch_statistics(x, activity)
        decay = 1.0 - taupdt
        tr.p_i *= decay
        tr.p_i += taupdt * mean_x
        tr.p_j *= decay
        tr.p_j += taupdt * mean_a
        tr.p_ij *= decay
        tr.p_ij += taupdt * mean_outer

    fused_traces = _TraceBuffers(p_i, p_j, p_ij)
    fused_rng = np.random.default_rng(0)
    engine = LayerEngine(backend, ExecutionPlan(N_INPUT, tuple(HIDDEN_SIZES), BATCH))
    weight_buf = np.empty((N_INPUT, N_HIDDEN))
    bias_buf = np.empty(N_HIDDEN)

    def compete(activations):
        return kernels.compete_into(
            activations, HIDDEN_SIZES, "sample", COMPETITION_NOISE, bias_buf,
            COMPETITION_BIAS_DELTA, fused_rng, scratch=engine.workspace,
        )

    def fused_step():
        tr = fused_traces
        backend.traces_to_weights(
            tr.p_i, tr.p_j, tr.p_ij, out_weights=weight_buf, out_bias=bias_buf
        )
        # As the layer's refresh does: without it the engine keeps serving
        # the first step's cached weights * mask product.
        engine.note_weights_refreshed()
        engine.fused_update(x, weight_buf, bias_buf, mask, 1.0, tr, taupdt, activity_fn=compete)

    unfused_seconds = _time_loop(unfused_step, repeats=repeats, inner=inner)
    fused_seconds = _time_loop(fused_step, repeats=repeats, inner=inner)
    return {
        "config": {
            "n_input": N_INPUT,
            "n_hidden": N_HIDDEN,
            "batch_size": BATCH,
            "backend": "numpy",
            "competition": "sample",
            "repeats": repeats,
            "inner_iterations": inner,
        },
        "unfused_seconds_per_batch": unfused_seconds,
        "fused_seconds_per_batch": fused_seconds,
        "speedup": unfused_seconds / max(fused_seconds, 1e-12),
        "bitwise_equal": bool(
            np.array_equal(unfused_traces.p_i, fused_traces.p_i)
            and np.array_equal(unfused_traces.p_j, fused_traces.p_j)
            and np.array_equal(unfused_traces.p_ij, fused_traces.p_ij)
        ),
        "workspace_bytes": engine.workspace.nbytes(),
    }


TRAINING_BACKENDS = ("numpy", "parallel", "distributed", "float32")


def measure_fused_training_backends(backends=TRAINING_BACKENDS, repeats=5, inner=20):
    """Per-backend seconds of the complete fused training step.

    Every backend runs the identical engine-dispatched step (trace→weight
    refresh + fused forward/statistics/EMA through one preallocated
    workspace) so the numbers compare dispatch + kernel cost across the
    registered compute backends (ROADMAP: per-backend fused *training*
    timings complementing the serving throughputs).
    """
    x, mask, p_i, p_j, p_ij = _training_step_problem()
    taupdt = 0.01
    results = {}
    for name in backends:
        backend = get_backend(name)
        traces = _TraceBuffers(p_i, p_j, p_ij)
        engine = LayerEngine(backend, ExecutionPlan(N_INPUT, tuple(HIDDEN_SIZES), BATCH))
        weight_buf = np.empty((N_INPUT, N_HIDDEN))
        bias_buf = np.empty(N_HIDDEN)

        def step(
            backend=backend,
            traces=traces,
            engine=engine,
            weight_buf=weight_buf,
            bias_buf=bias_buf,
        ):
            backend.traces_to_weights(
                traces.p_i,
                traces.p_j,
                traces.p_ij,
                out_weights=weight_buf,
                out_bias=bias_buf,
            )
            # The refresh mutates weight_buf in place: tell the engine, or it
            # keeps dispatching on its cached (stale) weights * mask product.
            engine.note_weights_refreshed()
            engine.fused_update(x, weight_buf, bias_buf, mask, 1.0, traces, taupdt)

        seconds = _time_loop(step, repeats=repeats, inner=inner)
        results[name] = {
            "seconds_per_batch": seconds,
            "batches_per_second": 1.0 / max(seconds, 1e-12),
            "workspace_bytes": engine.workspace.nbytes(),
        }
        backend.close()
    return {
        "config": {
            "n_input": N_INPUT,
            "n_hidden": N_HIDDEN,
            "batch_size": BATCH,
            "repeats": repeats,
            "inner_iterations": inner,
        },
        "backends": results,
    }


SERVING_BACKENDS = ("numpy", "parallel", "distributed", "float32")


def _serving_network():
    """A built (untrained) Higgs-sized network for inference timing.

    Inference numerics do not require training — ``build`` materialises
    weights from the initial traces — so the benchmark skips ``fit`` and
    measures pure streaming-forward throughput.
    """
    from repro.core import BCPNNClassifier, InputSpec, Network, StructuralPlasticityLayer

    network = Network(seed=0, name="bench-serving")
    network.add(StructuralPlasticityLayer(1, N_HIDDEN, density=0.4, seed=1))
    network.add(BCPNNClassifier(n_classes=2))
    network.build(InputSpec(INPUT_SIZES))
    return network


def measure_streaming_inference(
    backends=SERVING_BACKENDS, n_samples=8192, batch_size=BATCH, repeats=3
):
    """Per-backend throughput of ``predict_stream`` over a large input.

    The input is several times larger than any single workspace, so the
    numbers measure the steady-state streaming path: preallocated
    double-buffered workspaces, O(batch) memory, one engine dispatch per
    batch per layer.
    """
    from repro.serving import StreamingPredictor

    network = _serving_network()
    x = _one_hot_rows(n_samples)
    results = {}
    for name in backends:
        predictor = StreamingPredictor(network, batch_size=batch_size, backend=name)
        predictor.predict_stream(x[: 2 * batch_size])  # warm up engines/pools
        # The encoder's stored form (one byte per unit, widened per batch in
        # ``validate_batch``) beside its float64 copy: same model, same rows,
        # timed alternately so the pair shares whatever drift there is.
        inputs = {name: x}
        if name == "numpy":
            inputs["numpy_uint8_input"] = x.astype(np.uint8)
        timings = {row: [] for row in inputs}
        for _ in range(repeats):
            for row, rows in inputs.items():
                start = time.perf_counter()
                predictor.predict_stream(rows)
                timings[row].append(time.perf_counter() - start)
        for row in inputs:
            best = float(min(timings[row]))
            results[row] = {
                "seconds_total": best,
                "rows_per_second": n_samples / max(best, 1e-12),
                "workspace_bytes": predictor.workspace_nbytes(),
            }
        predictor.backend.close()
    if "numpy" in results:
        results["numpy_uint8_input"]["vs_float64_input"] = (
            results["numpy_uint8_input"]["rows_per_second"] / results["numpy"]["rows_per_second"]
        )
    return {
        "config": {
            "n_input": N_INPUT,
            "n_hidden": N_HIDDEN,
            "n_samples": int(n_samples),
            "batch_size": int(batch_size),
            "repeats": int(repeats),
        },
        "backends": results,
    }


def measure_checkpoint_overhead(n_samples=32768, epochs=3, repeats=8, batch_size=BATCH):
    """Wall-clock cost of durable checkpointing at ``checkpoint_every=1``.

    Times the same ``Network.fit`` with and without a checkpoint directory
    (every epoch boundary then pays an npz serialise + fsync + rename +
    manifest rewrite).  Each repeat runs the two variants back-to-back —
    pairing cancels the slow machine drift that dominates two
    separately-timed blocks — and the order *alternates* between pairs
    because the second fit of a pair measures systematically ~1-2% slower
    than the first even for identical work.  ``overhead`` is the median of
    per-pair ratios, which also rejects a single outlier pair.  The CI
    gate (``--check-checkpoint``) pins this at <= 1.05x: durability must
    stay in the noise of a training epoch, not compete with it.
    """
    import shutil
    import tempfile

    from repro.core import (
        Network,
        SGDClassifier,
        StructuralPlasticityLayer,
        TrainingSchedule,
    )

    x = _one_hot_rows(n_samples)
    y = np.random.default_rng(1).integers(0, 2, n_samples)
    schedule = TrainingSchedule(
        hidden_epochs=epochs, classifier_epochs=1, sgd_epochs=1, batch_size=batch_size
    )

    def build():
        network = Network(seed=0, name="bench-checkpoint")
        network.add(StructuralPlasticityLayer(1, N_HIDDEN, density=0.4, seed=1))
        network.add(SGDClassifier(n_classes=2, seed=2))
        return network

    def timed_fit(checkpoint_dir=None):
        network = build()
        start = time.perf_counter()
        network.fit(
            x, y, input_spec=INPUT_SIZES, schedule=schedule,
            checkpoint_dir=checkpoint_dir, checkpoint_every=1,
        )
        return time.perf_counter() - start

    plain_timings, ckpt_timings, ratios = [], [], []
    tmp = tempfile.mkdtemp(prefix="bench-ckpt-")
    try:
        timed_fit()  # warm-up: page in data, settle BLAS threads
        for pair in range(repeats):
            if pair % 2 == 0:
                plain_timings.append(timed_fit())
                ckpt_timings.append(timed_fit(checkpoint_dir=tmp))
            else:
                ckpt_timings.append(timed_fit(checkpoint_dir=tmp))
                plain_timings.append(timed_fit())
            ratios.append(ckpt_timings[-1] / max(plain_timings[-1], 1e-12))
        n_checkpoints = len(list(Path(tmp).glob("ckpt-*.npz")))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {
        "config": {
            "n_input": N_INPUT,
            "n_hidden": N_HIDDEN,
            "n_samples": int(n_samples),
            "epochs": int(epochs),
            "batch_size": int(batch_size),
            "repeats": int(repeats),
        },
        "plain_seconds": float(min(plain_timings)),
        "checkpointed_seconds": float(min(ckpt_timings)),
        "checkpoints_retained": int(n_checkpoints),
        "overhead": float(np.median(ratios)),
    }


def measure_request_decode(repeats=300):
    """Microseconds to turn one 64 x 280 ``POST /predict`` body into its matrix.

    ``json_us`` is the server's general parse (``json.loads`` +
    ``np.asarray(..., float64)``), ``decoder_us`` the rows-first decoder it
    tries first on large bodies (:mod:`repro.serving.jsonrows`), on the e2e
    load generator's body (integer literals) and on a ``0.0``/``1.0`` one.
    Calls alternate so both share whatever drift there is; each figure is
    the median call, ``speedup`` their ratio.
    """
    from repro.serving.jsonrows import decode_rows_first

    x = _one_hot_rows(64)
    rows = {}
    for kind, literals in (("integer", x.astype(np.uint8)), ("float", x)):
        body = json.dumps({"rows": literals.tolist()}).encode("utf-8")
        if decode_rows_first(body) is None:  # a decline would time nothing
            raise RuntimeError(f"the rows-first decoder declined the {kind} body")
        json_s, decoder_s = [], []
        for _ in range(repeats):
            start = time.perf_counter()
            np.asarray(json.loads(body.decode("utf-8"))["rows"], dtype=np.float64)
            middle = time.perf_counter()
            decode_rows_first(body)
            decoder_s.append(time.perf_counter() - middle)
            json_s.append(middle - start)
        json_us, decoder_us = float(np.median(json_s) * 1e6), float(np.median(decoder_s) * 1e6)
        rows[kind] = {
            "body_bytes": len(body),
            "json_us": json_us,
            "decoder_us": decoder_us,
            "speedup": json_us / decoder_us,
        }
    return rows


def write_bench_json(sections, path=BENCH_JSON_PATH):
    """Merge ``sections`` into ``BENCH_kernels.json``, preserving the rest.

    The fused-training and streaming-inference measurements are produced by
    different entry points (pytest vs standalone), so each write merges its
    section instead of clobbering the other's.
    """
    path = Path(path)
    payload = {"benchmark": "bench_kernels"}
    if path.is_file():
        try:
            payload.update(json.loads(path.read_text()))
        except (ValueError, OSError):
            pass
    payload.update(sections)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def test_fused_workspace_path_faster_than_unfused():
    """Acceptance: the fused engine path beats the seed's per-batch allocations.

    Also emits BENCH_kernels.json so the perf trajectory is tracked.
    """
    result = measure_fused_vs_unfused()
    write_bench_json({"fused_vs_unfused": result})
    assert result["fused_seconds_per_batch"] > 0
    # Small tolerance so CPU-contention noise cannot flake the suite; the
    # recorded speedup in BENCH_kernels.json is the tracked signal and the
    # CI perf gate (``--check-speedup``) holds the hard threshold.
    assert result["bitwise_equal"], "fused and unfused steps must train identical traces"
    assert result["fused_seconds_per_batch"] < 1.05 * result["unfused_seconds_per_batch"], (
        f"fused path ({result['fused_seconds_per_batch']:.6f}s) is not faster than "
        f"the allocate-per-batch path ({result['unfused_seconds_per_batch']:.6f}s)"
    )


@pytest.mark.benchmark(group="kernels")
def test_bench_fused_training_step(benchmark, kernel_data):
    d = kernel_data
    backend = get_backend("numpy")
    traces = _TraceBuffers(d["p_i"], d["p_j"], d["p_ij"])
    engine = LayerEngine(backend, ExecutionPlan(N_INPUT, tuple(HIDDEN_SIZES), BATCH))
    activations = benchmark(
        lambda: engine.fused_update(
            d["x"], d["weights"], d["bias"], d["mask"], 1.0, traces, 0.01
        )
    )
    assert activations.shape == (BATCH, N_HIDDEN)


def test_sparse_density_sweep_measured():
    """The block-sparse execution plan must run and be timed at every density.

    Asserts structure plus the *qualitative* ordering (sparse at density 0.3
    must not be slower than dense — the hard >=1.5x threshold lives in the
    CI perf-gate job's ``--check-sparse``, which runs the full published
    configuration), and that the sparse path stays bitwise-identical to the
    dense path on the gate configuration.
    """
    from repro.instrumentation import measure_sparse_density_sweep

    outcome = measure_sparse_density_sweep(densities=(0.3,), repeats=2, inner=8)
    row = outcome["densities"][0]
    assert row["sparse_train_seconds_per_batch"] > 0
    assert row["dense_serving_rows_per_second"] > 0
    assert row["sparse_serving_rows_per_second"] > 0
    assert row["train_speedup"] > 1.0
    assert row["serving_speedup"] > 1.0


def test_pipelined_training_measured():
    """The pipelined engine must run and be timed against the serial loop.

    Asserts structure, not a speedup ratio: perf ratios on a loaded,
    possibly single-core test machine are flaky, so the hard >= threshold
    lives in the CI perf-gate job (``--check-pipelined``), which runs the
    same full configuration the committed JSON publishes.
    """
    from repro.instrumentation import measure_pipelined_training

    outcome = measure_pipelined_training(
        n_samples=1024, epochs=1, repeats=1, weight_refresh_tol=0.01
    )
    assert outcome["serial_seconds_per_batch"] > 0
    assert outcome["pipelined_seconds_per_batch"] > 0
    assert outcome["speedup"] > 0
    # Stale-weights caching must actually have skipped refreshes.
    assert 0 < outcome["weight_refreshes"] < outcome["batches"]


def test_checkpoint_overhead_measured():
    """Checkpointed and plain fits must both run and be timed.

    Asserts structure, not the ratio: the hard <= 1.05x gate lives in the
    CI chaos job (``--check-checkpoint``), which runs the full
    configuration the committed JSON publishes.
    """
    outcome = measure_checkpoint_overhead(n_samples=1024, epochs=1, repeats=1)
    assert outcome["plain_seconds"] > 0
    assert outcome["checkpointed_seconds"] > 0
    assert outcome["overhead"] > 0
    # Epoch boundaries actually produced durable checkpoints.
    assert outcome["checkpoints_retained"] >= 1


def test_fused_training_measured_on_every_backend():
    """The fused training step must run (and be timed) on every backend."""
    outcome = measure_fused_training_backends(repeats=2, inner=5)
    for name in TRAINING_BACKENDS:
        entry = outcome["backends"][name]
        assert entry["seconds_per_batch"] > 0
        assert entry["workspace_bytes"] > 0


def test_comm_throughput_measured_on_every_transport():
    """Every stdlib transport (tcp included) must complete the timing loop."""
    from repro.comm.benchmark import measure_comm_throughput

    outcome = measure_comm_throughput(
        transports=("serial", "thread", "process", "tcp"),
        ranks=2,
        repeats=3,
        warmup=1,
        timeout=60.0,
    )
    by_name = {row["transport"]: row for row in outcome["transports"]}
    for name in ("serial", "thread", "process", "tcp"):
        assert "error" not in by_name[name], by_name[name]
        assert by_name[name]["seconds_per_allreduce"] > 0
    # The payloads the e2e workloads really reduce ride along, and the gated
    # tcp-vs-process ratio is derived for all three.
    assert {(r["payload"], r["transport"]) for r in outcome["e2e_payloads"]} == {
        (p, t)
        for p in ("narrow_tcp2", "wide_process2")
        for t in ("serial", "thread", "process", "tcp")
    }
    assert set(outcome["tcp_vs_process"]) == {"default", "narrow_tcp2", "wide_process2"}
    assert all(ratio > 0 for ratio in outcome["tcp_vs_process"].values())


def test_comm_overlap_measured():
    """Overlapped comm training must run and be timed against blocking.

    Asserts structure plus the payload contract (the sparse-packed payload
    at density 0.3 must be at most half the dense payload — that bound is
    layout arithmetic, not a timing, so it cannot flake); the hard speedup
    threshold lives in the CI perf-gate job's ``--check-overlap``.
    """
    from repro.instrumentation import measure_comm_overlap

    outcome = measure_comm_overlap(n_samples=1024, epochs=1, repeats=1, timeout=60.0)
    assert outcome["blocking_seconds_per_batch"] > 0
    assert outcome["overlapped_seconds_per_batch"] > 0
    assert outcome["speedup"] > 0
    assert outcome["overlapped_iallreduce_calls"] == outcome["batches"]
    by_density = {row["density"]: row for row in outcome["payload_sweep"]}
    assert by_density[0.3]["payload_ratio"] <= 0.5
    assert by_density[0.3]["sparse_engaged"] == 1.0


def test_streaming_inference_throughput_recorded():
    """The serving path must stream every backend.

    Deliberately does NOT write BENCH_kernels.json: the quick configuration
    here (2048 rows) is incomparable with the standalone run's committed
    numbers, and a pytest invocation must not dirty the tracked perf
    trajectory.  The JSON is regenerated by ``python benchmarks/bench_kernels.py``.
    """
    outcome = measure_streaming_inference(n_samples=2048, repeats=2)
    for name in SERVING_BACKENDS + ("numpy_uint8_input",):
        entry = outcome["backends"][name]
        assert entry["rows_per_second"] > 0
        assert entry["workspace_bytes"] > 0


def test_serving_latency_measured():
    """The online serving endpoint must answer a closed-loop client population.

    Asserts structure and correctness properties (zero failed requests,
    positive throughput in both phases), not absolute latencies: wall-clock
    percentiles on a loaded test machine are flaky, so the hard p99 bound
    lives in the CI perf-gate job's ``--check-latency``, which runs the
    same full configuration the committed JSON publishes.
    """
    from repro.instrumentation import measure_serving_latency

    outcome = measure_serving_latency(
        n_clients=4, rows_per_request=2, duration=0.6, n_minicolumns=100
    )
    for phase in ("single_client", "saturated"):
        assert outcome[phase]["failures"] == 0, outcome[phase]
        assert outcome[phase]["rows_per_second"] > 0
        assert outcome[phase]["p99_ms"] > 0
    # Coalescing must actually have happened under the concurrent phase.
    assert outcome["mean_batch_rows"] > 0
    assert outcome["batcher"]["batches"] > 0


def test_request_decode_measured():
    """Both e2e-shaped bodies are timed through both paths (the decoder declines neither)."""
    rows = measure_request_decode(repeats=5)
    for kind in ("integer", "float"):
        assert rows[kind]["json_us"] > 0 and rows[kind]["decoder_us"] > 0
        assert rows[kind]["speedup"] == rows[kind]["json_us"] / rows[kind]["decoder_us"]


#: Relative tolerance for ``--check-committed``: the committed JSON's
#: dimensionless speedup ratios must sit within this fraction of the
#: runner's fresh measurement.  Absolute seconds are machine-dependent and
#: are deliberately NOT compared; the speedups are ratios of two timings on
#: the *same* machine, so a committed value drifting more than 50% from a
#: fresh measurement means the JSON is stale (or was fabricated), not that
#: the runner is slower.
COMMITTED_DRIFT_TOLERANCE = 0.5


def _committed_speedups(payload):
    """The dimensionless speedup metrics tracked by the drift check."""
    metrics = {}
    fused = payload.get("fused_vs_unfused")
    if fused:
        metrics["fused_vs_unfused.speedup"] = float(fused["speedup"])
    pipelined = payload.get("pipelined_training")
    if pipelined:
        metrics["pipelined_training.speedup"] = float(pipelined["speedup"])
    overlap = payload.get("comm_overlap")
    if overlap:
        metrics["comm_overlap.speedup"] = float(overlap["speedup"])
    compact = payload.get("streaming_inference", {}).get("backends", {}).get("numpy_uint8_input")
    if compact:
        metrics["streaming_inference.uint8_vs_float64_input"] = float(compact["vs_float64_input"])
    for kind, row in payload.get("serving_latency", {}).get("request_decode", {}).items():
        metrics[f"serving_latency.request_decode[{kind}].speedup"] = float(row["speedup"])
    sparse = payload.get("sparse_density_sweep")
    if sparse:
        for row in sparse.get("densities", []):
            key = f"sparse_density_sweep[{row['density']:g}]"
            metrics[f"{key}.train_speedup"] = float(row["train_speedup"])
            metrics[f"{key}.serving_speedup"] = float(row["serving_speedup"])
    return metrics


def check_committed_drift(fresh_sections, committed_path, tolerance=COMMITTED_DRIFT_TOLERANCE):
    """Compare fresh speedup ratios against a committed ``BENCH_kernels.json``.

    Returns a list of human-readable failure strings (empty = within
    tolerance).  Metrics present on only one side are reported as drift —
    a committed JSON missing a gated section is exactly the staleness this
    check exists to catch.
    """
    committed = json.loads(Path(committed_path).read_text())
    fresh = _committed_speedups(fresh_sections)
    recorded = _committed_speedups(committed)
    failures = []
    for name in sorted(set(fresh) | set(recorded)):
        if name not in fresh:
            failures.append(f"{name}: committed but not measured in this run")
            continue
        if name not in recorded:
            failures.append(f"{name}: measured but missing from the committed JSON")
            continue
        measured, committed_value = fresh[name], recorded[name]
        drift = abs(committed_value - measured) / max(abs(measured), 1e-12)
        if drift > tolerance:
            failures.append(
                f"{name}: committed {committed_value:.3f}x vs fresh {measured:.3f}x "
                f"({drift:.0%} drift > {tolerance:.0%} tolerance)"
            )
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="smaller measurement for CI (seconds, not minutes)"
    )
    parser.add_argument(
        "--check-speedup",
        type=float,
        default=None,
        metavar="X",
        help="exit non-zero when the fused-vs-unfused speedup is below X",
    )
    parser.add_argument(
        "--check-pipelined",
        type=float,
        default=None,
        metavar="Y",
        help=(
            "exit non-zero when the pipelined-vs-serial training speedup is "
            "below Y (measured on the same configuration the JSON publishes)"
        ),
    )
    parser.add_argument(
        "--check-sparse",
        type=float,
        default=None,
        metavar="Z",
        help=(
            "exit non-zero when the block-sparse execution plan's training or "
            "serving speedup over the dense fused path at density 0.3 is below Z"
        ),
    )
    parser.add_argument(
        "--check-overlap",
        type=float,
        default=None,
        metavar="W",
        help=(
            "exit non-zero when the overlapped-vs-blocking comm training "
            "speedup at two process ranks is below W, or when the sparse "
            "payload at density 0.3 exceeds half the dense payload"
        ),
    )
    parser.add_argument(
        "--check-latency",
        type=float,
        default=None,
        metavar="MS",
        help=(
            "exit non-zero when the serving endpoint's saturated-phase p99 "
            "request latency exceeds MS milliseconds, or when any closed-loop "
            "client request failed"
        ),
    )
    parser.add_argument(
        "--check-checkpoint",
        type=float,
        default=None,
        metavar="R",
        help=(
            "exit non-zero when fit with checkpoint_every=1 is more than R "
            "times slower than the same fit without checkpointing"
        ),
    )
    parser.add_argument(
        "--check-comm-tcp",
        type=float,
        default=None,
        metavar="R",
        help=(
            "exit non-zero when a 2-rank tcp allreduce takes more than R times "
            "the process transport's, on the Higgs payload or either e2e payload"
        ),
    )
    parser.add_argument(
        "--check-committed",
        type=str,
        default=None,
        metavar="PATH",
        help=(
            "exit non-zero when the committed BENCH_kernels.json at PATH "
            "drifts more than --drift-tol from this run's fresh speedup "
            "ratios (absolute seconds are machine-dependent and not compared)"
        ),
    )
    parser.add_argument(
        "--drift-tol",
        type=float,
        default=COMMITTED_DRIFT_TOLERANCE,
        metavar="FRAC",
        help=(
            "relative tolerance for --check-committed (default "
            f"{COMMITTED_DRIFT_TOLERANCE}: committed speedups within ±50%% of "
            "fresh ones)"
        ),
    )
    parser.add_argument(
        "--json", type=str, default=str(BENCH_JSON_PATH), help="output JSON path"
    )
    args = parser.parse_args(argv)

    from repro.comm.benchmark import measure_comm_throughput
    from repro.instrumentation import (
        measure_comm_overlap,
        measure_pipelined_training,
        measure_serving_latency,
        measure_sparse_density_sweep,
    )

    if args.quick:
        fused = measure_fused_vs_unfused(repeats=3, inner=10)
        training = measure_fused_training_backends(repeats=3, inner=10)
        pipelined = measure_pipelined_training(n_samples=2048, epochs=2, repeats=2)
        serving = measure_streaming_inference(n_samples=4096, repeats=2)
        comm = measure_comm_throughput(ranks=2, repeats=10, warmup=2)
        overlap = measure_comm_overlap(n_samples=2048, epochs=1, repeats=2)
        sparse = measure_sparse_density_sweep(repeats=3, inner=15, serve_samples=4096)
        latency = measure_serving_latency(n_clients=4, rows_per_request=2, duration=1.0)
        checkpoint = measure_checkpoint_overhead(n_samples=2048, epochs=2, repeats=2)
    else:
        fused = measure_fused_vs_unfused()
        training = measure_fused_training_backends()
        pipelined = measure_pipelined_training()
        serving = measure_streaming_inference()
        comm = measure_comm_throughput(ranks=2, repeats=30, warmup=5)
        overlap = measure_comm_overlap()
        sparse = measure_sparse_density_sweep()
        latency = measure_serving_latency()
        checkpoint = measure_checkpoint_overhead()
    latency["request_decode"] = measure_request_decode()
    sections = {
        "fused_vs_unfused": fused,
        "fused_training_backends": training,
        "pipelined_training": pipelined,
        "streaming_inference": serving,
        "comm_throughput": comm,
        "comm_overlap": overlap,
        "sparse_density_sweep": sparse,
        "serving_latency": latency,
        "checkpoint_overhead": checkpoint,
    }
    path = write_bench_json(sections, path=args.json)
    print(json.dumps(sections, indent=2))
    print(f"wrote {path}")
    failed = False
    if args.check_speedup is not None and fused["speedup"] < args.check_speedup:
        print(
            f"PERF REGRESSION: fused-vs-unfused speedup {fused['speedup']:.3f}x "
            f"is below the {args.check_speedup:.2f}x gate"
        )
        failed = True
    if args.check_pipelined is not None and pipelined["speedup"] < args.check_pipelined:
        print(
            f"PERF REGRESSION: pipelined-vs-serial training speedup "
            f"{pipelined['speedup']:.3f}x is below the {args.check_pipelined:.2f}x gate"
        )
        failed = True
    if args.check_sparse is not None:
        gate_rows = [r for r in sparse["densities"] if r["density"] == 0.3]
        if not gate_rows:
            print("PERF REGRESSION: sparse sweep did not measure density 0.3")
            failed = True
        for row in gate_rows:
            if row["train_speedup"] < args.check_sparse:
                print(
                    f"PERF REGRESSION: sparse training speedup {row['train_speedup']:.3f}x "
                    f"at density 0.3 is below the {args.check_sparse:.2f}x gate"
                )
                failed = True
            if row["serving_speedup"] < args.check_sparse:
                print(
                    f"PERF REGRESSION: sparse serving speedup {row['serving_speedup']:.3f}x "
                    f"at density 0.3 is below the {args.check_sparse:.2f}x gate"
                )
                failed = True
    if args.check_overlap is not None:
        if overlap["speedup"] < args.check_overlap:
            print(
                f"PERF REGRESSION: overlapped-vs-blocking comm training speedup "
                f"{overlap['speedup']:.3f}x is below the {args.check_overlap:.2f}x gate"
            )
            failed = True
        gate_rows = [r for r in overlap["payload_sweep"] if r["density"] == 0.3]
        if not gate_rows:
            print("PERF REGRESSION: payload sweep did not measure density 0.3")
            failed = True
        for row in gate_rows:
            if row["payload_ratio"] > 0.5:
                print(
                    f"PERF REGRESSION: sparse payload ratio {row['payload_ratio']:.3f} "
                    f"at density 0.3 exceeds the 0.5x dense bound"
                )
                failed = True
    if args.check_latency is not None:
        p99 = latency["saturated"].get("p99_ms", float("inf"))
        if p99 > args.check_latency:
            print(
                f"PERF REGRESSION: serving saturated p99 latency {p99:.2f}ms "
                f"exceeds the {args.check_latency:.1f}ms gate"
            )
            failed = True
        served_failures = int(
            latency["single_client"]["failures"] + latency["saturated"]["failures"]
        )
        if served_failures:
            print(
                f"PERF REGRESSION: {served_failures} serving request(s) failed "
                "under the closed-loop client population (expected zero)"
            )
            failed = True
    if args.check_checkpoint is not None and checkpoint["overhead"] > args.check_checkpoint:
        print(
            f"PERF REGRESSION: checkpoint_every=1 overhead "
            f"{checkpoint['overhead']:.3f}x exceeds the "
            f"{args.check_checkpoint:.2f}x gate"
        )
        failed = True
    if args.check_comm_tcp is not None:
        ratios = comm.get("tcp_vs_process")
        if not ratios:
            print("PERF REGRESSION: comm throughput did not measure both tcp and process")
            failed = True
        for payload, ratio in (ratios or {}).items():
            if ratio > args.check_comm_tcp:
                print(
                    f"PERF REGRESSION: tcp allreduce is {ratio:.2f}x the process "
                    f"transport's on the {payload} payload (gate {args.check_comm_tcp:.2f}x)"
                )
                failed = True
    if args.check_committed is not None:
        drift = check_committed_drift(sections, args.check_committed, args.drift_tol)
        for line in drift:
            print(f"BENCH DRIFT: {line}")
        if drift:
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
