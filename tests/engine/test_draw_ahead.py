"""Competition noise drawn one batch ahead on the pipeline worker.

``train_layer_pipelined`` draws batch ``k+1``'s normals on its worker while
batch ``k`` finishes, except for each epoch's first and last batch.  The
layer's generator makes the same calls in the same order, one thread at a
time, so a fit must equal the inline schedule's bit for bit: traces, mask,
weights, bias, history and both generators after the fit.
"""

import threading

import numpy as np
import pytest

from repro import faults
from repro.core import (
    BCPNNHyperParameters,
    InputSpec,
    Network,
    SGDClassifier,
    StructuralPlasticityLayer,
    TrainingSchedule,
)
from repro.datasets.stream import BatchStream
from repro.engine import pipeline
from repro.engine.pipeline import train_layer_pipelined
from repro.exceptions import FaultInjected

SIZES = [4] * 6


class RecordingGenerator(np.random.Generator):
    """``default_rng(seed)`` that notes the thread of every normal draw."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.normal_threads = []

    def standard_normal(self, *args, **kwargs):
        self.normal_threads.append(threading.current_thread().name)
        return super().standard_normal(*args, **kwargs)


def _one_hot(n, seed):
    rng = np.random.default_rng(seed)
    starts = np.concatenate([[0], np.cumsum(SIZES)[:-1]])
    x = np.zeros((n, sum(SIZES)))
    x[np.arange(n)[:, None], starts + rng.integers(0, SIZES, size=(n, len(SIZES)))] = 1.0
    return x


def _helpers(monkeypatch, available):
    monkeypatch.setattr(pipeline, "helper_threads_available", lambda: available)
    monkeypatch.setattr("repro.core.network.helper_threads_available", lambda: available)


def _pipeline_threads():
    return [t for t in threading.enumerate() if t.name.startswith("repro-pipeline")]


def _wide_layer(generator):
    # 2 x 64 units at B = 128: 16 384 normals a batch, enough to draw ahead.
    layer = StructuralPlasticityLayer(2, 64, seed=generator)
    return layer.build(InputSpec(SIZES))


class TestWhereTheNormalsAreDrawn:
    def test_middle_batches_of_each_epoch_draw_on_the_worker(self, monkeypatch):
        monkeypatch.setattr(pipeline, "helper_threads_available", lambda: True)
        generator = RecordingGenerator(5)
        layer = _wide_layer(generator)
        # 600 rows: four full batches and a remainder of 88.
        stream = BatchStream(_one_hot(600, 1), batch_size=128, rng=np.random.default_rng(2))
        train_layer_pipelined(layer, stream, 2, offload=False)
        worker = f"repro-pipeline-{layer.name}"
        epoch = ["MainThread", worker, worker, worker, "MainThread"]
        assert generator.normal_threads == 2 * epoch
        assert not _pipeline_threads()

    @pytest.mark.parametrize(
        "why, hyperparams, rows",
        [
            ("softmax draws none", BCPNNHyperParameters(competition="softmax"), 600),
            ("noise 0 draws none", BCPNNHyperParameters(competition_noise=0.0), 600),
            ("two batches", BCPNNHyperParameters(), 256),
        ],
    )
    def test_nothing_to_draw_ahead_starts_no_thread(self, monkeypatch, why, hyperparams, rows):
        monkeypatch.setattr(pipeline, "helper_threads_available", lambda: True)
        started = []
        monkeypatch.setattr(pipeline, "PipelineWorker", lambda **kw: started.append(kw))
        layer = StructuralPlasticityLayer(2, 64, hyperparams=hyperparams, seed=5)
        layer.build(InputSpec(SIZES))
        stream = BatchStream(_one_hot(rows, 1), batch_size=128, rng=np.random.default_rng(2))
        train_layer_pipelined(layer, stream, 2, offload=False)
        assert started == [], why

    def test_small_draws_stay_inline(self, monkeypatch):
        monkeypatch.setattr(pipeline, "helper_threads_available", lambda: True)
        generator = RecordingGenerator(5)
        layer = _wide_layer(generator)
        # 127 rows x 128 units is one normal short of the look-ahead size.
        stream = BatchStream(_one_hot(600, 1), batch_size=127, rng=np.random.default_rng(2))
        train_layer_pipelined(layer, stream, 1, offload=False)
        assert set(generator.normal_threads) == {"MainThread"}

    def test_one_core_draws_inline(self, monkeypatch):
        monkeypatch.setattr(pipeline, "helper_threads_available", lambda: False)
        generator = RecordingGenerator(5)
        layer = _wide_layer(generator)
        stream = BatchStream(_one_hot(600, 1), batch_size=128, rng=np.random.default_rng(2))
        train_layer_pipelined(layer, stream, 1)
        assert generator.normal_threads == 5 * ["MainThread"]

    def test_a_failing_draw_is_the_loops_error_and_closes_the_worker(self, monkeypatch):
        monkeypatch.setattr(pipeline, "helper_threads_available", lambda: True)
        layer = _wide_layer(np.random.default_rng(5))

        def failing_draw(n_rows):
            def draw():
                raise RuntimeError("draw failed")

            return draw

        monkeypatch.setattr(layer, "noise_draw", failing_draw)
        stream = BatchStream(_one_hot(600, 1), batch_size=128, rng=np.random.default_rng(2))
        with pytest.raises(RuntimeError, match="draw failed"):
            train_layer_pipelined(layer, stream, 1, offload=True)
        assert not _pipeline_threads()


def _strip_durations(history):
    return [(r.phase, r.layer_name, r.epoch, sorted(r.metrics.items())) for r in history.records]


def _fit(x, y, hyperparams, schedule, **fit_kwargs):
    generator = RecordingGenerator(4)
    network = Network(seed=11)
    network.add(StructuralPlasticityLayer(2, 7, hyperparams=hyperparams, seed=generator))
    network.add(SGDClassifier(n_classes=2, seed=6))
    history = network.fit(x, y, input_spec=InputSpec(SIZES), schedule=schedule, **fit_kwargs)
    return network, history, generator


def _assert_same_fit(a, b):
    (net_a, history_a, _), (net_b, history_b, _) = a, b
    la, lb = net_a.hidden_layers[0], net_b.hidden_layers[0]
    for name in ("p_i", "p_j", "p_ij"):
        assert np.array_equal(getattr(la.traces, name), getattr(lb.traces, name)), name
    assert np.array_equal(la.plasticity.mask, lb.plasticity.mask)
    assert np.array_equal(la.weights, lb.weights)
    assert np.array_equal(la.bias, lb.bias)
    assert np.array_equal(net_a.head.weights, net_b.head.weights)
    assert _strip_durations(history_a) == _strip_durations(history_b)
    assert la._rng.bit_generator.state == lb._rng.bit_generator.state
    assert net_a._rng.bit_generator.state == net_b._rng.bit_generator.state


COMPETITIONS = {
    "sample-0.1": ("sample", 0.1),
    "sample-0": ("sample", 0.0),
    "noisy_softmax": ("noisy_softmax", 0.1),
    "softmax": ("softmax", 0.1),
}


class TestBitwiseParity:
    """Drawing ahead against the helper forced off, for every competition."""

    @pytest.mark.parametrize("swaps", [True, False], ids=["swaps", "frozen"])
    @pytest.mark.parametrize("rows, batch", [(203, 32), (24, 1)], ids=["remainder", "B1"])
    @pytest.mark.parametrize("pipelined", [False, True], ids=["plain", "pipeline"])
    @pytest.mark.parametrize("density", [0.3, 1.0])
    @pytest.mark.parametrize("competition", sorted(COMPETITIONS))
    def test_fit_equals_the_inline_schedule(
        self, monkeypatch, competition, density, pipelined, rows, batch, swaps
    ):
        # The layer is far below the look-ahead size: lower it so it draws ahead.
        monkeypatch.setattr(pipeline, "LOOK_AHEAD_MIN_NORMALS", 1)
        mode, noise = COMPETITIONS[competition]
        hyperparams = BCPNNHyperParameters(
            competition=mode,
            competition_noise=noise,
            density=density,
            taupdt=0.05,
            mask_update_period=1 if swaps else 100,
        )
        schedule = TrainingSchedule(
            hidden_epochs=3, classifier_epochs=1, batch_size=batch, pipeline=pipelined
        )
        x = _one_hot(rows, 3)
        y = (x[:, 0] + x[:, 4] > 0).astype(int)
        _helpers(monkeypatch, False)
        inline = _fit(x, y, hyperparams, schedule)
        _helpers(monkeypatch, True)
        ahead = _fit(x, y, hyperparams, schedule)
        _assert_same_fit(inline, ahead)
        threads = ahead[2].normal_threads
        assert set(inline[2].normal_threads) <= {"MainThread"}
        assert (len(set(threads)) == 2) == (competition in ("sample-0.1", "noisy_softmax"))
        if swaps and density < 1.0:
            assert any(r.metrics.get("mask_swaps", 0) > 0 for r in ahead[1].records)

    def test_resume_at_an_epoch_boundary_is_bitwise(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pipeline, "LOOK_AHEAD_MIN_NORMALS", 1)
        faults.install_plan(None)
        hyperparams = BCPNNHyperParameters(density=0.5, taupdt=0.05)
        schedule = TrainingSchedule(hidden_epochs=4, classifier_epochs=2, batch_size=32)
        x = _one_hot(203, 3)
        y = (x[:, 0] + x[:, 4] > 0).astype(int)
        _helpers(monkeypatch, False)
        baseline = _fit(x, y, hyperparams, schedule)

        _helpers(monkeypatch, True)
        faults.install_plan(faults.FaultPlan("driver.kill@epoch=1,mode=raise"))
        try:
            with pytest.raises(FaultInjected):
                _fit(x, y, hyperparams, schedule, checkpoint_dir=tmp_path)
        finally:
            faults.install_plan(None)
        resumed = _fit(x, y, hyperparams, schedule, checkpoint_dir=tmp_path, resume=True)
        _assert_same_fit(baseline, resumed)
        assert len(set(resumed[2].normal_threads)) == 2
