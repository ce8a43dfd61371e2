"""Tests for History, EpochResult and callbacks."""

from repro.core.training import CallbackList, EpochResult, History, TrainingCallback


class TestHistory:
    def test_append_and_last_metric(self):
        history = History()
        history.append(EpochResult("hidden", "layer0", 0, 0.5, {"entropy": 1.0}))
        history.append(EpochResult("hidden", "layer0", 1, 0.4, {"entropy": 0.8}))
        history.append(EpochResult("classifier", "head", 0, 0.1, {"train_accuracy": 0.7}))
        assert [r.phase for r in history.records] == ["hidden", "hidden", "classifier"]
        assert history.last_metric("entropy") == 0.8
        assert history.last_metric("train_accuracy") == 0.7

    def test_missing_metric_is_default(self):
        history = History()
        history.append(EpochResult("hidden", "l", 0, 0.1, {}))
        assert history.last_metric("nothing", default=-1.0) == -1.0


class TestCallbacks:
    def test_callback_list_order(self):
        order = []

        class Recorder(TrainingCallback):
            def __init__(self, tag):
                self.tag = tag

            def on_epoch_end(self, context):
                order.append(self.tag)

        callbacks = CallbackList([Recorder("a"), Recorder("b")])
        callbacks.on_epoch_end({})
        assert order == ["a", "b"]

    def test_base_callback_is_noop(self):
        cb = TrainingCallback()
        cb.on_train_begin(None)
        cb.on_epoch_end({})
        cb.on_train_end(None)
