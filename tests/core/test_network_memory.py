"""Bounded-memory ``fit`` and bulk inference: one tile loop, one ``(N, H)`` matrix.

Every bulk forward of :class:`~repro.core.Network` (``predict*``,
``decision_function``, ``transform``, ``evaluate`` and the between-phase
transforms of ``fit``) pushes ``TILE_ROWS``-row tiles through engine
workspaces.  Two families of checks:

* **numerics** — against the stack composed *by hand* from the allocating
  ``layer.forward`` and the head methods (no engine, no workspace, no
  predictor).  Composed at the same row boundaries the results must be equal
  bit for bit on any BLAS, because every GEMM then has the same shape.
  Composed on the full matrix the *labels* must be equal and the float
  outputs within ``FULL_MATRIX_ATOL``: OpenBLAS picks its micro-kernels by the
  row count, so a ``(1, K) @ (K, M)`` tail tile (a ``gemv``) or a remainder
  block may round a real-valued dot product differently from the same row
  inside a larger GEMM (measured here: 1 ulp on head outputs and on a
  stacked layer's tail rows; never on one-hot inputs).
* **memory** — ``tracemalloc`` bounds that fail at the parent commit, where
  each of these calls held three ``(N, H)`` matrices at once.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro import faults
from repro.core import (
    BCPNNClassifier,
    BCPNNHyperParameters,
    InputSpec,
    Network,
    SGDClassifier,
    StructuralPlasticityLayer,
    TrainingSchedule,
)
from repro.core.network import TILE_ROWS
from repro.exceptions import FaultInjected

T = TILE_ROWS
FULL_MATRIX_ATOL = 1e-12
SPEC = InputSpec.uniform(12, 5)

#: name -> [(n_hypercolumns, n_minicolumns, density), ...]
ARCHITECTURES = {
    "sparse": [(2, 30, 0.3)],
    "dense": [(2, 30, 1.0)],
    "stacked": [(3, 20, 0.4), (2, 10, 1.0)],
}


def _one_hot(n, spec, seed, dtype=np.float64):
    rng = np.random.default_rng(seed)
    x = np.zeros((n, spec.n_units), dtype=dtype)
    offset = 0
    for size in spec.hypercolumn_sizes:
        x[np.arange(n), offset + rng.integers(0, size, n)] = 1
        offset += size
    return x


def _network(arch, head, seed=0):
    network = Network(seed=seed)
    for index, (n_hcu, n_mcu, density) in enumerate(ARCHITECTURES[arch]):
        network.add(
            StructuralPlasticityLayer(
                n_hcu,
                n_mcu,
                hyperparams=BCPNNHyperParameters(taupdt=0.02, density=density),
                seed=seed + 1 + index,
            )
        )
    network.add(
        SGDClassifier(n_classes=2, seed=seed + 9) if head == "sgd" else BCPNNClassifier(n_classes=2)
    )
    return network


def _schedule(**overrides):
    options = dict(hidden_epochs=2, classifier_epochs=2, batch_size=128)
    options.update(overrides)
    return TrainingSchedule(**options)


@pytest.fixture(scope="module", params=[(a, h) for a in ARCHITECTURES for h in ("sgd", "bcpnn")],
                ids=lambda p: f"{p[0]}-{p[1]}")
def fitted(request):
    arch, head = request.param
    network = _network(arch, head)
    y = np.random.default_rng(1).integers(0, 2, 700)
    network.fit(_one_hot(700, SPEC, 2), y, input_spec=SPEC, schedule=_schedule())
    sparse_layers = [layer.sparse_active for layer in network.hidden_layers]
    assert sparse_layers == [density <= 0.6 for _, _, density in ARCHITECTURES[arch]]
    return network


def _hidden_by_hand(network, x, rows=None, n_layers=None):
    """``x`` through ``layer.forward`` of the first ``n_layers`` hidden layers.

    ``rows=None`` composes on the full matrix; otherwise piecewise on
    consecutive ``rows``-row slices (the tile boundaries).
    """
    rows = rows or max(len(x), 1)
    pieces = []
    for lo in range(0, max(len(x), 1), rows):
        hidden = np.asarray(x[lo : lo + rows], dtype=np.float64)
        for layer in network.hidden_layers[:n_layers]:
            hidden = layer.forward(hidden)
        pieces.append(hidden)
    return pieces


def _by_hand(network, x, rows=None):
    """``(hidden, decision, proba, labels)`` from ``layer.forward`` + the head."""
    head = network.head
    pieces = [
        (hidden, head.decision_function(hidden), head.predict_proba(hidden), head.predict(hidden))
        for hidden in _hidden_by_hand(network, x, rows)
    ]
    return [np.concatenate(part) for part in zip(*pieces)]


class TestBulkForwardNumerics:
    @pytest.mark.parametrize("n", [1, T - 1, T, T + 1, 3 * T + 7])
    def test_equals_the_stack_composed_by_hand(self, fitted, n):
        x = _one_hot(n, SPEC, seed=n)
        outputs = (
            fitted.transform(x),
            fitted.decision_function(x),
            fitted.predict_proba(x),
            fitted.predict(x),
        )
        # Same row boundaries: every GEMM has the tile's shape -> bitwise.
        for ours, reference in zip(outputs, _by_hand(fitted, x, rows=T)):
            assert ours.dtype == reference.dtype
            assert np.array_equal(ours, reference)
        # Full matrix: labels equal, floats within the kernel-selection ulp.
        hidden, decision, proba, labels = _by_hand(fitted, x)
        assert np.array_equal(outputs[3], labels)
        for ours, reference in zip(outputs[:3], (hidden, decision, proba)):
            np.testing.assert_allclose(ours, reference, rtol=0, atol=FULL_MATRIX_ATOL)
        if len(fitted.hidden_layers) == 1:
            # One-hot rows make every product exact: the first layer's
            # representation is row-tiling invariant bit for bit.
            assert np.array_equal(outputs[0], hidden)

    def test_stream_and_bulk_paths_agree_bitwise(self, fitted):
        x = _one_hot(2 * T + 3, SPEC, seed=5)
        assert np.array_equal(fitted.predict_stream(x, batch_size=T), fitted.predict(x))
        assert np.array_equal(
            fitted.predict_proba_stream(x, batch_size=T), fitted.predict_proba(x)
        )

    def test_empty_and_malformed_inputs(self, fitted):
        from repro.exceptions import DataError

        empty = np.empty((0, SPEC.n_units))
        assert fitted.predict(empty).shape == (0,)
        assert fitted.predict_proba(empty).shape == (0, 2)
        assert fitted.transform(empty).shape == (0, fitted.hidden_layers[-1].n_hidden_units)
        with pytest.raises(DataError):
            fitted.predict(np.zeros(SPEC.n_units))
        with pytest.raises(DataError):
            fitted.predict(np.zeros((3, SPEC.n_units + 1)))


def _reference_tiled(rows):
    """A ``Network._tiled`` replacement built on :func:`_hidden_by_hand`."""

    def tiled(self, x, head_stage=None, tail=(), dtype=np.float64, n_layers=None):
        assert head_stage is None  # fit only asks for representations
        return np.concatenate(_hidden_by_hand(self, x, rows, n_layers))

    return tiled


def _history_key(history):
    return [(r.phase, r.layer_name, r.epoch, sorted(r.metrics.items())) for r in history.records]


def _model_arrays(network):
    arrays = [network.head.weights, network.head.bias]
    for layer in network.hidden_layers:
        arrays += [layer.traces.p_i, layer.traces.p_j, layer.traces.p_ij, layer.plasticity.mask]
        arrays += [layer.weights, layer.bias]
    return arrays


class TestFitNumerics:
    """``fit`` against a fit whose between-phase transforms are composed by hand."""

    N = 2 * T + 77

    def _fit(self, arch, head, monkeypatch=None, rows=None, **fit_options):
        network = _network(arch, head)
        if monkeypatch is not None:
            monkeypatch.setattr(Network, "_tiled", _reference_tiled(rows))
        x = _one_hot(self.N, SPEC, seed=3)
        y = np.random.default_rng(4).integers(0, 2, self.N)
        history = network.fit(x, y, input_spec=SPEC, schedule=_schedule(), **fit_options)
        if monkeypatch is not None:
            monkeypatch.undo()
        return network, history, network.evaluate(_one_hot(900, SPEC, seed=6), y[:900])

    @pytest.mark.parametrize("head", ["sgd", "bcpnn"])
    @pytest.mark.parametrize("arch", list(ARCHITECTURES))
    def test_identical_to_hand_composed_transforms(self, arch, head, monkeypatch):
        network, history, metrics = self._fit(arch, head)
        # Tile-aligned reference: bitwise, whatever the BLAS.
        reference, ref_history, ref_metrics = self._fit(arch, head, monkeypatch, rows=T)
        assert _history_key(history) == _history_key(ref_history)
        for ours, theirs in zip(_model_arrays(network), _model_arrays(reference)):
            assert np.array_equal(ours, theirs)
        assert metrics == ref_metrics
        # Full-matrix reference (the parent commit's between-phase forward).
        full, full_history, full_metrics = self._fit(arch, head, monkeypatch, rows=None)
        if arch != "stacked":
            # One hidden layer on one-hot rows: the head trains on the same
            # bits, so the whole fit is identical.
            assert _history_key(history) == _history_key(full_history)
            for ours, theirs in zip(_model_arrays(network), _model_arrays(full)):
                assert np.array_equal(ours, theirs)
            assert metrics["auc"] == full_metrics["auc"]
        else:
            for ours, theirs in zip(_model_arrays(network), _model_arrays(full)):
                np.testing.assert_allclose(ours, theirs, rtol=0, atol=1e-9)
            assert metrics["auc"] == pytest.approx(full_metrics["auc"], abs=1e-9)

    @pytest.mark.parametrize("kill_epoch", [1, 3, 5])
    def test_mid_run_resume_rebuilds_the_representation(self, tmp_path, kill_epoch):
        """Kills in layer 0 (1), in layer 1 (3) and in the head phase (5).

        A resume past layer 0 has to rebuild the unit's input from ``x``
        through the restored layers — the tiled forward, as in the
        uninterrupted run.
        """
        baseline, history, metrics = self._fit("stacked", "sgd")
        faults.install_plan(faults.FaultPlan(f"driver.kill@epoch={kill_epoch},mode=raise"))
        try:
            with pytest.raises(FaultInjected):
                self._fit("stacked", "sgd", checkpoint_dir=tmp_path)
        finally:
            faults.install_plan(None)
        resumed, resumed_history, resumed_metrics = self._fit(
            "stacked", "sgd", checkpoint_dir=tmp_path, resume=True
        )
        assert _history_key(history) == _history_key(resumed_history)
        for ours, theirs in zip(_model_arrays(baseline), _model_arrays(resumed)):
            assert np.array_equal(ours, theirs)
        assert metrics == resumed_metrics


# --------------------------------------------------------------------- memory
WIDE_SPEC = InputSpec.uniform(28, 10)
WIDE_H = 4 * 300
MB = 1e6
#: What a 280 -> 4 x 300 fit holds besides its one (N, H) matrix: the layer's
#: parameters (traces, weights, mask, packed slabs: < 10 MB) plus either one
#: tile's workspaces (2 x TILE_ROWS x H x 8 + gather = 11.2 MB) or the
#: training engine's (< 14 MB) — never both.
WIDE_FIXED_BYTES = 24 * MB


def _wide_network():
    network = Network(seed=0)
    network.add(
        StructuralPlasticityLayer(
            4, 300, hyperparams=BCPNNHyperParameters(taupdt=0.02, density=0.3), seed=1
        )
    )
    network.add(SGDClassifier(n_classes=2, seed=2))
    return network


def _traced_peak(fn):
    """``(result, peak bytes above the level at entry)`` of ``fn()``."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def wide_fitted():
    network = _wide_network()
    y = np.random.default_rng(1).integers(0, 2, 1500)
    network.fit(
        _one_hot(1500, WIDE_SPEC, 2), y, input_spec=WIDE_SPEC,
        schedule=_schedule(hidden_epochs=1, classifier_epochs=1, batch_size=256),
    )
    return network


class TestMemory:
    @pytest.mark.parametrize("n", [1500, 3000])
    def test_fit_and_evaluate_hold_one_hidden_matrix(self, n):
        x = _one_hot(n, WIDE_SPEC, 2)
        y = np.random.default_rng(1).integers(0, 2, n)
        schedule = _schedule(hidden_epochs=1, classifier_epochs=1, batch_size=256)

        def fit_and_evaluate():
            network = _wide_network()
            network.fit(x, y, input_spec=WIDE_SPEC, schedule=schedule)
            return network.evaluate(x, y)

        _, peak = _traced_peak(fit_and_evaluate)
        # Parent commit: 3.0-3.4 x N*H*8 (support, shifted and result of the
        # full-matrix forward at once) on top of the same fixed part.
        assert peak < n * WIDE_H * 8 + WIDE_FIXED_BYTES, f"peak {peak / MB:.1f} MB"

    @pytest.mark.parametrize("method", ["predict", "predict_proba", "evaluate", "decision_function"])
    def test_inference_peak_does_not_grow_with_the_input(self, wide_fitted, method):
        n = 1500
        small, large = _one_hot(n, WIDE_SPEC, 3), _one_hot(4 * n, WIDE_SPEC, 4)
        labels = np.random.default_rng(5).integers(0, 2, 4 * n)

        def call(x):
            if method == "evaluate":
                return lambda: wide_fitted.evaluate(x, labels[: len(x)])
            return lambda: getattr(wide_fitted, method)(x)

        _, small_peak = _traced_peak(call(small))
        _, large_peak = _traced_peak(call(large))
        output_bytes = 4 * n * 2 * 8
        assert large_peak <= small_peak + output_bytes + 1 * MB, (
            f"{method}: {small_peak / MB:.1f} MB at {n} rows, "
            f"{large_peak / MB:.1f} MB at {4 * n} rows"
        )
        # ...and it is the tile's working set, not a multiple of the input's.
        assert large_peak < 3 * T * WIDE_H * 8

    def test_bulk_calls_leave_nothing_on_the_network(self, wide_fitted):
        x = _one_hot(600, WIDE_SPEC, 3)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            wide_fitted.predict(x)
            wide_fitted.evaluate(x, np.zeros(600, dtype=int))
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 0.1 * MB
        assert wide_fitted._serving_predictor is None
        assert all(layer._engine is None for layer in wide_fitted.hidden_layers)

    def test_consecutive_fits_retain_parameters_only(self):
        """Three ``train_and_evaluate`` calls, each result alive during the next."""
        from repro.experiments.config import HiggsExperimentConfig
        from repro.experiments.higgs_pipeline import prepare_higgs_data, train_and_evaluate

        config = HiggsExperimentConfig(
            n_hypercolumns=4, n_minicolumns=300, density=0.3, n_events=2400,
            hidden_epochs=1, classifier_epochs=1, batch_size=256,
        )
        data = prepare_higgs_data(n_events=config.n_events, n_bins=config.n_bins, seed=0)
        train_and_evaluate(config, data=data)  # imports, lazy module state
        gc.collect()
        tracemalloc.start()
        try:
            results = []
            for _ in range(3):
                before = tracemalloc.get_traced_memory()[0]
                results.append(train_and_evaluate(config, data=data))
                gc.collect()
                retained = tracemalloc.get_traced_memory()[0] - before
                # Traces + weights + mask + packed slabs; the parent also kept
                # the training engine: 23.8 MB.
                assert retained < 12 * MB, f"{retained / MB:.1f} MB"
        finally:
            tracemalloc.stop()
        # Releasing the engine does not change what training after fit does.
        first, second = (r["network"].hidden_layers[0] for r in results[:2])
        batch = data.x_train[:256]
        assert np.array_equal(first.train_batch(batch), second.train_batch(batch))
        assert np.array_equal(first.traces.p_ij, second.traces.p_ij)

    @pytest.mark.parametrize("dtype", [np.uint8, np.float32])
    def test_encoded_input_is_converted_per_tile(self, wide_fitted, dtype):
        n = 8 * T
        compact = _one_hot(n, WIDE_SPEC, 7, dtype=dtype)
        expected = wide_fitted.predict(compact.astype(np.float64))
        labels, peak = _traced_peak(lambda: wide_fitted.predict(compact))
        assert np.array_equal(labels, expected)
        # A whole-matrix float64 copy alone would be n x 280 x 8 = 9.2 MB on
        # top of the tile's working set.
        tile_bytes = 2 * T * WIDE_H * 8 + 2 * T * WIDE_SPEC.n_units * 8
        assert peak < tile_bytes + 2 * MB, f"{peak / MB:.1f} MB"


class TestStoredInputDtype:
    """The dataset stays at one byte per unit: no float64 copy in setup or in ``fit``."""

    N = 5974  # narrow-layer fit: N*H*8 = 1.4 MB is out of the way of N*n_in*8 = 13.4 MB

    @pytest.mark.parametrize("comm", [None, "thread:2"])
    def test_fit_and_evaluate_never_widen_the_whole_matrix(self, comm):
        x = _one_hot(self.N, WIDE_SPEC, 2, dtype=np.uint8)
        y = np.random.default_rng(1).integers(0, 2, self.N)
        schedule = _schedule(hidden_epochs=1, classifier_epochs=1, batch_size=256)

        def fit_and_evaluate():
            network = Network(seed=0)
            network.add(StructuralPlasticityLayer(1, 30, density=0.3, seed=1))
            network.add(SGDClassifier(n_classes=2, seed=2))
            network.fit(x, y, input_spec=WIDE_SPEC, schedule=schedule, comm=comm)
            return network.evaluate(x, y)

        _, peak = _traced_peak(fit_and_evaluate)
        # Parent commit: 16.3 MB serial (the cast in fit), 41.5 MB on thread:2
        # (the cast plus one broadcast float64 copy per rank).
        assert peak < self.N * WIDE_SPEC.n_units * 8 / 2, f"peak {peak / MB:.1f} MB"

    def test_scenario_setup_holds_the_encoding_at_one_byte_per_unit(self):
        from repro.config import DatasetSection
        from repro.datasets.registry import get_scenario

        section = DatasetSection(scenario="higgs", n_events=12000, test_fraction=0.5)
        data, peak = _traced_peak(lambda: get_scenario("higgs").prepare(section, seed=0))
        assert data.x_train.dtype == data.x_test.dtype == np.uint8
        # Parent commit: 36.4 MB (29.5 MB of it retained as two float64 matrices).
        assert peak < 16 * MB, f"peak {peak / MB:.1f} MB"
