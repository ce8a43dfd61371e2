"""Tests for the Keras-like Network front end."""

import numpy as np
import pytest

from repro.core import (
    BCPNNClassifier,
    BCPNNHyperParameters,
    InputSpec,
    Network,
    SGDClassifier,
    StructuralPlasticityLayer,
    TrainingSchedule,
)
from repro.core.training import TrainingCallback
from repro.exceptions import ConfigurationError, DataError, NotFittedError


class TestAssembly:
    def test_add_order_enforced(self):
        net = Network()
        net.add(StructuralPlasticityLayer(1, 5))
        net.add(SGDClassifier(n_classes=2))
        with pytest.raises(ConfigurationError):
            net.add(StructuralPlasticityLayer(1, 5))
        with pytest.raises(ConfigurationError):
            net.add(BCPNNClassifier(n_classes=2))

    def test_unsupported_layer_rejected(self):
        with pytest.raises(ConfigurationError):
            Network().add("not-a-layer")

    def test_fit_requires_head(self):
        net = Network()
        net.add(StructuralPlasticityLayer(1, 5))
        with pytest.raises(ConfigurationError):
            net.fit(np.ones((10, 4)), np.zeros(10, dtype=int), input_spec=InputSpec([2, 2]))

    def test_fit_requires_input_spec(self):
        net = Network()
        net.add(SGDClassifier(n_classes=2))
        with pytest.raises(ConfigurationError):
            net.fit(np.ones((10, 4)), np.zeros(10, dtype=int))

    def test_summary_mentions_layers(self):
        net = Network(name="summary-test")
        net.add(StructuralPlasticityLayer(2, 7, name="hidden-a"))
        net.add(BCPNNClassifier(n_classes=3, name="clf"))
        text = net.summary()
        assert "hidden-a" in text and "clf" in text and "summary-test" in text


class TestTraining:
    def test_end_to_end_learns(self, encoded_higgs):
        net = Network(seed=0)
        net.add(
            StructuralPlasticityLayer(
                1, 40, hyperparams=BCPNNHyperParameters(taupdt=0.03, density=0.4), seed=1
            )
        )
        net.add(SGDClassifier(n_classes=2, learning_rate=0.1, seed=2))
        history = net.fit(
            encoded_higgs["x_train"],
            encoded_higgs["y_train"],
            input_spec=encoded_higgs["spec"],
            schedule=TrainingSchedule(hidden_epochs=3, classifier_epochs=6, batch_size=128),
        )
        evaluation = net.evaluate(encoded_higgs["x_test"], encoded_higgs["y_test"])
        assert evaluation["accuracy"] > 0.58
        assert evaluation["auc"] > 0.6
        assert len(history.records) == 3 + 6

    def test_head_trains_at_its_own_learning_rate(self):
        # The head's learning_rate is the one declaration fit reads (a tenth
        # of it in the sgd_epochs fine-tuning epochs).
        rng = np.random.default_rng(0)
        x = np.eye(4)[rng.integers(0, 4, size=(96, 3))].reshape(96, 12)
        y = (x[:, 0] + x[:, 5] > 0).astype(int)

        def head_weights(learning_rate):
            net = Network(seed=0)
            net.add(StructuralPlasticityLayer(1, 6, seed=1))
            net.add(SGDClassifier(n_classes=2, learning_rate=learning_rate, seed=2))
            net.fit(
                x,
                y,
                input_spec=InputSpec([4, 4, 4]),
                schedule=TrainingSchedule(
                    hidden_epochs=1, classifier_epochs=1, sgd_epochs=1, batch_size=32
                ),
            )
            return net.head.weights.copy()

        assert not np.array_equal(head_weights(0.05), head_weights(0.2))
        assert np.array_equal(head_weights(0.2), head_weights(0.2))

    def test_history_metrics_present(self, trained_network):
        history = trained_network.history
        by_phase = {"hidden": [], "classifier": []}
        for record in history.records:
            by_phase[record.phase].append(record)
        assert by_phase["hidden"] and by_phase["classifier"]
        assert all("mean_activation_entropy" in r.metrics for r in by_phase["hidden"])
        assert all("train_accuracy" in r.metrics for r in by_phase["classifier"])

    def test_verbose_fit_prints_one_line_per_epoch(self, encoded_higgs, capsys):
        net = Network(seed=0)
        net.add(StructuralPlasticityLayer(1, 10, density=0.5, seed=1))
        net.add(SGDClassifier(n_classes=2, seed=2))
        net.fit(
            encoded_higgs["x_train"][:500],
            encoded_higgs["y_train"][:500],
            input_spec=encoded_higgs["spec"],
            schedule=TrainingSchedule(hidden_epochs=2, classifier_epochs=3, batch_size=128),
            verbose=True,
        )
        lines = capsys.readouterr().out.splitlines()
        hidden = [line for line in lines if line.startswith("[hidden:")]
        head = [line for line in lines if line.startswith("[head:")]
        assert [line.split()[2] for line in hidden] == ["1/2", "2/2"]
        assert "entropy=" in hidden[0] and "swaps=" in hidden[0]
        assert len(head) == len(net.history.records) - 2
        assert all("train_acc=" in line for line in head)

    def test_callbacks_invoked_per_epoch(self, encoded_higgs):
        events = []

        class Recorder(TrainingCallback):
            def on_train_begin(self, network):
                events.append("begin")

            def on_epoch_end(self, context):
                events.append((context["phase"], context["epoch"]))

            def on_train_end(self, network):
                events.append("end")

        callback = Recorder()
        net = Network(seed=0)
        net.add(StructuralPlasticityLayer(1, 10, density=0.5, seed=1))
        net.add(BCPNNClassifier(n_classes=2))
        net.fit(
            encoded_higgs["x_train"][:500],
            encoded_higgs["y_train"][:500],
            input_spec=encoded_higgs["spec"],
            schedule=TrainingSchedule(hidden_epochs=2, classifier_epochs=2, batch_size=128),
            callbacks=[callback],
        )
        assert events[0] == "begin" and events[-1] == "end"
        assert ("hidden", 0) in events and ("classifier", 1) in events

    def test_label_misalignment_rejected(self, encoded_higgs):
        net = Network()
        net.add(SGDClassifier(n_classes=2))
        with pytest.raises(DataError):
            net.fit(
                encoded_higgs["x_train"][:10],
                encoded_higgs["y_train"][:9],
                input_spec=encoded_higgs["spec"],
            )

    def test_headless_prediction_rejected(self):
        net = Network()
        net.add(SGDClassifier(n_classes=2))
        with pytest.raises(NotFittedError):
            net.predict(np.ones((2, 4)))


class TestInference:
    def test_predict_consistency(self, trained_network, encoded_higgs):
        x = encoded_higgs["x_test"][:50]
        proba = trained_network.predict_proba(x)
        pred = trained_network.predict(x)
        assert np.array_equal(pred, proba.argmax(axis=1))
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_transform_shape(self, trained_network, encoded_higgs):
        hidden = trained_network.transform(encoded_higgs["x_test"][:10])
        layer = trained_network.hidden_layers[0]
        assert hidden.shape == (10, layer.n_hidden_units)

    def test_evaluate_keys(self, trained_network, encoded_higgs):
        results = trained_network.evaluate(encoded_higgs["x_test"], encoded_higgs["y_test"])
        assert {"accuracy", "auc", "log_loss", "n_samples"} <= set(results)

    def test_receptive_field_masks_exposed(self, trained_network):
        masks = trained_network.receptive_field_masks()
        assert len(masks) == 1
        assert masks[0].shape == (2, 28)

    def test_no_hidden_layer_network(self, encoded_higgs):
        """A head-only network (logistic regression on the one-hot input) also works."""
        net = Network(seed=0)
        net.add(SGDClassifier(n_classes=2, learning_rate=0.2, seed=1))
        net.fit(
            encoded_higgs["x_train"],
            encoded_higgs["y_train"],
            input_spec=encoded_higgs["spec"],
            schedule=TrainingSchedule(hidden_epochs=0, classifier_epochs=8, batch_size=128),
        )
        evaluation = net.evaluate(encoded_higgs["x_test"], encoded_higgs["y_test"])
        assert evaluation["accuracy"] > 0.55
