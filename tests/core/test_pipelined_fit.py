"""Equivalence guarantees of pipelined / stale-weights training via ``fit``.

The contracts this file enforces (ISSUE 4 acceptance criteria):

* ``TrainingSchedule(pipeline=True)`` is **bit-for-bit** identical to the
  serial path — traces, weights, masks, history metrics and predictions;
* ``TrainingSchedule(weight_refresh_tol=0)`` is bit-for-bit identical to the
  historical refresh-every-batch training loop (enforced against an
  explicit re-implementation of that loop, not just today's default path);
* ``weight_refresh_tol > 0`` on the E9 configuration (deterministic softmax
  competition, Higgs-shaped data) stays within a small accuracy epsilon of
  exact training.
"""

import numpy as np
import pytest

from repro import kernels
from repro.core import (
    BCPNNClassifier,
    BCPNNHyperParameters,
    InputSpec,
    Network,
    SGDClassifier,
    StructuralPlasticityLayer,
    TrainingSchedule,
)
from repro.datasets.stream import BatchStream
from repro.utils.rng import as_rng

SIZES = [4, 4, 4]


def _one_hot(n, sizes, seed):
    rng = np.random.default_rng(seed)
    x = np.zeros((n, sum(sizes)))
    offset = 0
    for size in sizes:
        winners = rng.integers(0, size, size=n)
        x[np.arange(n), offset + winners] = 1.0
        offset += size
    return x


@pytest.fixture(scope="module")
def dataset():
    x = _one_hot(420, SIZES, seed=3)
    y = (x[:, 0] + x[:, 4] > 1).astype(int)
    return x, y


def _network(head):
    network = Network(seed=11, name="pipelined-fit")
    network.add(
        StructuralPlasticityLayer(
            2, 7, hyperparams=BCPNNHyperParameters(taupdt=0.05, density=0.6), seed=4
        )
    )
    network.add(
        StructuralPlasticityLayer(
            1, 5, hyperparams=BCPNNHyperParameters(taupdt=0.05), seed=5
        )
    )
    if head == "bcpnn":
        network.add(BCPNNClassifier(n_classes=2))
    else:
        network.add(SGDClassifier(n_classes=2, seed=6))
    return network


def _strip_durations(history):
    """History metrics in order, without wall-clock durations."""
    return [
        (r.phase, r.layer_name, r.epoch, sorted(r.metrics.items())) for r in history.records
    ]


class TestPipelinedFitEquivalence:
    @pytest.mark.parametrize("head", ["bcpnn", "sgd"])
    def test_bitwise_identical_to_serial(self, dataset, head):
        x, y = dataset
        schedule = TrainingSchedule(hidden_epochs=3, classifier_epochs=2, batch_size=64)
        serial = _network(head)
        serial_history = serial.fit(x, y, input_spec=InputSpec(SIZES), schedule=schedule)
        piped = _network(head)
        piped_history = piped.fit(
            x, y, input_spec=InputSpec(SIZES), schedule=schedule.replace(pipeline=True)
        )
        for ls, lp in zip(serial.hidden_layers, piped.hidden_layers):
            np.testing.assert_array_equal(ls.traces.p_i, lp.traces.p_i)
            np.testing.assert_array_equal(ls.traces.p_ij, lp.traces.p_ij)
            np.testing.assert_array_equal(ls.weights, lp.weights)
            np.testing.assert_array_equal(ls.plasticity.mask, lp.plasticity.mask)
        np.testing.assert_array_equal(serial.head.weights, piped.head.weights)
        assert _strip_durations(serial_history) == _strip_durations(piped_history)
        np.testing.assert_array_equal(serial.predict(x), piped.predict(x))
        np.testing.assert_array_equal(serial.predict_proba(x), piped.predict_proba(x))

    def test_bitwise_identical_with_forced_helper_threads(self, dataset, monkeypatch):
        """Force the overlapped schedule (worker + prefetch + double buffer)
        even on single-core machines, where fit would otherwise pick the
        degenerate inline schedule — the bitwise guarantee must hold for
        the full machinery, not just the degenerate path."""
        monkeypatch.setattr("repro.core.network.helper_threads_available", lambda: True)
        x, y = dataset
        schedule = TrainingSchedule(hidden_epochs=3, classifier_epochs=2, batch_size=64)
        piped = _network("bcpnn")
        piped.fit(x, y, input_spec=InputSpec(SIZES), schedule=schedule.replace(pipeline=True))
        monkeypatch.setattr("repro.core.network.helper_threads_available", lambda: False)
        serial = _network("bcpnn")
        serial.fit(x, y, input_spec=InputSpec(SIZES), schedule=schedule)
        for ls, lp in zip(serial.hidden_layers, piped.hidden_layers):
            np.testing.assert_array_equal(ls.traces.p_ij, lp.traces.p_ij)
            np.testing.assert_array_equal(ls.weights, lp.weights)
        np.testing.assert_array_equal(serial.predict(x), piped.predict(x))

    @pytest.mark.parametrize(
        "knob",
        ["pipeline", "weight_refresh_tol", "comm_overlap", "sparse_payload", "fault_tolerance"],
    )
    def test_fit_takes_no_per_call_knob(self, dataset, knob):
        # Every training knob has one home, the schedule.
        x, y = dataset
        with pytest.raises(TypeError, match=knob):
            _network("bcpnn").fit(x, y, input_spec=InputSpec(SIZES), **{knob: True})

    def test_engines_return_to_single_buffer_after_fit(self, dataset):
        x, y = dataset
        network = _network("bcpnn")
        network.fit(
            x, y, input_spec=InputSpec(SIZES),
            schedule=TrainingSchedule(
                hidden_epochs=1, classifier_epochs=1, batch_size=64, pipeline=True
            ),
        )
        for layer in network.hidden_layers:
            assert layer._engine_options["n_buffers"] == 1


class TestTolZeroMatchesHistoricalLoop:
    def test_hidden_layer_matches_refresh_every_batch_loop(self):
        """``tol=0`` training == the pre-stale-weights unconditional loop.

        The reference re-implements the historical ``train_batch`` semantics
        — fused engine dispatch followed by an *unconditional*
        ``refresh_weights()`` — so this test pins bit-for-bit compatibility
        with the pre-change main, not merely with today's default path.
        """
        x = _one_hot(256, SIZES, seed=9)
        hyper = BCPNNHyperParameters(taupdt=0.05, density=0.6, competition="softmax")

        reference = StructuralPlasticityLayer(2, 6, hyperparams=hyper, seed=21)
        reference.build(InputSpec(SIZES))
        ref_stream = BatchStream(x, batch_size=64, shuffle=True, rng=as_rng(13))
        for epoch in range(3):
            for batch in ref_stream:
                xb = reference.input_spec.validate_batch(batch.x)
                if reference.batches_trained == 0:
                    reference.traces.calibrate_marginals(
                        mean_x=xb.mean(axis=0), jitter=0.02, rng=reference._rng
                    )
                    reference.refresh_weights()
                engine = reference.engine_for(xb.shape[0])
                engine.fused_update(
                    xb,
                    reference.weights,
                    reference.bias,
                    reference._mask_expanded,
                    reference.hyperparams.bias_gain,
                    reference.traces,
                    reference.hyperparams.taupdt,
                    activity_fn=reference._training_activity,
                )
                reference.refresh_weights()  # unconditional: the old loop
                reference.batches_trained += 1
            reference.end_epoch(epoch)

        subject = StructuralPlasticityLayer(2, 6, hyperparams=hyper, seed=21)
        subject.build(InputSpec(SIZES))
        subject.configure_execution(weight_refresh_tol=0.0)
        stream = BatchStream(x, batch_size=64, shuffle=True, rng=as_rng(13))
        for epoch in range(3):
            for batch in stream:
                subject.train_batch(batch.x)
            subject.end_epoch(epoch)

        np.testing.assert_array_equal(reference.traces.p_i, subject.traces.p_i)
        np.testing.assert_array_equal(reference.traces.p_ij, subject.traces.p_ij)
        np.testing.assert_array_equal(reference.weights, subject.weights)
        np.testing.assert_array_equal(reference.plasticity.mask, subject.plasticity.mask)

    def test_explicit_tol_zero_fit_matches_default_fit(self, dataset):
        x, y = dataset
        schedule = TrainingSchedule(hidden_epochs=2, classifier_epochs=2, batch_size=64)
        default = _network("bcpnn")
        default.fit(x, y, input_spec=InputSpec(SIZES), schedule=schedule)
        explicit = _network("bcpnn")
        explicit.fit(
            x, y, input_spec=InputSpec(SIZES), schedule=schedule.replace(weight_refresh_tol=0.0)
        )
        for ld, le in zip(default.hidden_layers, explicit.hidden_layers):
            np.testing.assert_array_equal(ld.traces.p_ij, le.traces.p_ij)
            np.testing.assert_array_equal(ld.weights, le.weights)
        np.testing.assert_array_equal(default.head.weights, explicit.head.weights)


class TestStaleWeightsAccuracy:
    """E9-configuration accuracy of ``weight_refresh_tol > 0`` training."""

    @pytest.fixture(scope="class")
    def higgs(self):
        from repro.experiments.higgs_pipeline import prepare_higgs_data

        return prepare_higgs_data(n_events=800, seed=0)

    def _fit(self, higgs, tol, pipeline=False):
        # The E9 layer configuration: 2 HCUs, deterministic softmax
        # competition, taupdt=0.02, density=0.5 (distributed_experiment).
        hyper = BCPNNHyperParameters(taupdt=0.02, density=0.5, competition="softmax")
        network = Network(seed=0, name="e9-stale")
        network.add(StructuralPlasticityLayer(2, 20, hyperparams=hyper, seed=1))
        network.add(BCPNNClassifier(n_classes=2))
        network.fit(
            higgs.x_train,
            higgs.y_train,
            input_spec=higgs.input_spec,
            schedule=TrainingSchedule(
                hidden_epochs=2,
                classifier_epochs=2,
                batch_size=128,
                pipeline=pipeline,
                weight_refresh_tol=tol,
            ),
        )
        return network

    def test_tol_positive_accuracy_within_epsilon(self, higgs):
        exact = self._fit(higgs, tol=0.0)
        stale = self._fit(higgs, tol=0.05, pipeline=True)
        acc_exact = exact.evaluate(higgs.x_test, higgs.y_test)["accuracy"]
        acc_stale = stale.evaluate(higgs.x_test, higgs.y_test)["accuracy"]
        assert abs(acc_exact - acc_stale) <= 0.05
        # The traces drift only within the approximation budget.
        np.testing.assert_allclose(
            exact.hidden_layers[0].traces.p_ij,
            stale.hidden_layers[0].traces.p_ij,
            atol=0.05,
        )
        # After fit the stale network's weights are flushed and consistent
        # with its own traces.
        layer = stale.hidden_layers[0]
        expected_w, _ = kernels.traces_to_weights(
            layer.traces.p_i, layer.traces.p_j, layer.traces.p_ij, layer._trace_floor
        )
        np.testing.assert_array_equal(layer.weights, expected_w)
