"""Serial checkpoint/resume: interrupted == uninterrupted, bit for bit.

The tentpole guarantee: kill the driver at any epoch boundary, ``fit`` again
with ``resume=True``, and the final weights, predictions and history are
bitwise-identical to a run that was never interrupted (tol=0).
"""

import dataclasses

import numpy as np
import pytest

from repro import faults
from repro.checkpoint import (
    CheckpointManager,
    TrainingCheckpointer,
    network_from_checkpoint,
    training_fingerprint,
)
from repro.core import (
    BCPNNHyperParameters,
    InputSpec,
    Network,
    SGDClassifier,
    StructuralPlasticityLayer,
    TrainingSchedule,
)
from repro.core.heads import BCPNNClassifier
from repro.exceptions import CheckpointError, ConfigurationError, FaultInjected


@pytest.fixture(autouse=True)
def _clean_plan():
    faults.install_plan(None)
    yield
    faults.install_plan(None)


def _data(seed=0, n=96, blocks=(3, 4, 5)):
    rng = np.random.default_rng(seed)
    cols = []
    for b in blocks:
        onehot = np.zeros((n, b))
        onehot[np.arange(n), rng.integers(0, b, n)] = 1
        cols.append(onehot)
    return np.hstack(cols), rng.integers(0, 2, n), list(blocks)


def _network(seed=7, head="sgd"):
    net = Network(seed=seed)
    net.add(StructuralPlasticityLayer(n_hypercolumns=2, n_minicolumns=3, seed=seed + 1))
    if head == "sgd":
        net.add(SGDClassifier(n_classes=2, seed=seed + 2))
    else:
        net.add(BCPNNClassifier(n_classes=2))
    return net


def _schedule():
    return TrainingSchedule(hidden_epochs=4, classifier_epochs=3, sgd_epochs=2, batch_size=32)


def _history_key(history):
    return [(r.phase, r.layer_name, r.epoch, sorted(r.metrics.items())) for r in history.records]


def _assert_identical(net_a, net_c, x):
    assert np.array_equal(net_a.head.weights, net_c.head.weights)
    la, lc = net_a.hidden_layers[0], net_c.hidden_layers[0]
    assert np.array_equal(la.traces.p_ij, lc.traces.p_ij)
    assert np.array_equal(la.plasticity.mask, lc.plasticity.mask)
    assert np.array_equal(net_a.predict(x), net_c.predict(x))


class TestSerialResume:
    @pytest.mark.parametrize("kill_epoch", [0, 3, 5])
    def test_driver_kill_then_resume_is_bitwise_identical(self, tmp_path, kill_epoch):
        """Boundary kills in the hidden phase (0, 3) and head phase (5)."""
        x, y, blocks = _data()
        baseline = _network()
        hist_a = baseline.fit(x, y, input_spec=blocks, schedule=_schedule())

        faults.install_plan(faults.FaultPlan(f"driver.kill@epoch={kill_epoch},mode=raise"))
        interrupted = _network()
        with pytest.raises(FaultInjected):
            interrupted.fit(
                x, y, input_spec=blocks, schedule=_schedule(), checkpoint_dir=tmp_path
            )
        faults.install_plan(None)

        resumed = _network()
        hist_c = resumed.fit(
            x, y, input_spec=blocks, schedule=_schedule(), checkpoint_dir=tmp_path, resume=True
        )
        _assert_identical(baseline, resumed, x)
        assert _history_key(hist_a) == _history_key(hist_c)

    def test_pipeline_toggle_does_not_block_resume(self, tmp_path):
        """``pipeline`` reorders the hidden phase and changes no number, so a
        run checkpointed with it on resumes with it off, bit for bit."""
        x, y, blocks = _data()
        baseline = _network()
        hist_a = baseline.fit(x, y, input_spec=blocks, schedule=_schedule())

        faults.install_plan(faults.FaultPlan("driver.kill@epoch=1,mode=raise"))
        interrupted = _network()
        with pytest.raises(FaultInjected):
            interrupted.fit(
                x, y, input_spec=blocks, schedule=_schedule().replace(pipeline=True),
                checkpoint_dir=tmp_path,
            )
        faults.install_plan(None)

        resumed = _network()
        hist_c = resumed.fit(
            x, y, input_spec=blocks, schedule=_schedule(), checkpoint_dir=tmp_path, resume=True
        )
        _assert_identical(baseline, resumed, x)
        assert _history_key(hist_a) == _history_key(hist_c)

    def test_bcpnn_head_resume(self, tmp_path):
        """The BCPNN head's first-batch calibration must not re-fire on resume."""
        x, y, blocks = _data()
        baseline = _network(head="bcpnn")
        baseline.fit(x, y, input_spec=blocks, schedule=_schedule())

        faults.install_plan(faults.FaultPlan("driver.kill@epoch=5,mode=raise"))
        interrupted = _network(head="bcpnn")
        with pytest.raises(FaultInjected):
            interrupted.fit(
                x, y, input_spec=blocks, schedule=_schedule(), checkpoint_dir=tmp_path
            )
        faults.install_plan(None)

        resumed = _network(head="bcpnn")
        resumed.fit(
            x, y, input_spec=blocks, schedule=_schedule(), checkpoint_dir=tmp_path, resume=True
        )
        la, lc = baseline.head, resumed.head
        assert np.array_equal(la.traces.p_ij, lc.traces.p_ij)
        assert np.array_equal(baseline.predict(x), resumed.predict(x))

    def test_resume_of_empty_directory_starts_fresh(self, tmp_path):
        x, y, blocks = _data()
        baseline = _network()
        baseline.fit(x, y, input_spec=blocks, schedule=_schedule())
        resumed = _network()
        resumed.fit(
            x, y, input_spec=blocks, schedule=_schedule(), checkpoint_dir=tmp_path, resume=True
        )
        _assert_identical(baseline, resumed, x)

    def test_resume_of_finished_run_is_a_noop(self, tmp_path):
        x, y, blocks = _data()
        done = _network()
        hist_a = done.fit(
            x, y, input_spec=blocks, schedule=_schedule(), checkpoint_dir=tmp_path
        )
        resumed = _network()
        hist_c = resumed.fit(
            x, y, input_spec=blocks, schedule=_schedule(), checkpoint_dir=tmp_path, resume=True
        )
        _assert_identical(done, resumed, x)
        assert _history_key(hist_a) == _history_key(hist_c)

    def test_checkpoint_every_skips_boundaries(self, tmp_path):
        x, y, blocks = _data()
        net = _network()
        net.fit(
            x,
            y,
            input_spec=blocks,
            schedule=_schedule(),
            checkpoint_dir=tmp_path,
            checkpoint_every=2,
            checkpoint_keep=50,
        )
        manifest = CheckpointManager(tmp_path, keep_last=50).read_manifest()
        # 9 boundaries (4 hidden + 3 head with epochs_done%2 checks + unit
        # advances at epochs_done=0) — fewer saves than checkpoint_every=1.
        every_1 = _network()
        other = tmp_path / "all"
        every_1.fit(
            x,
            y,
            input_spec=blocks,
            schedule=_schedule(),
            checkpoint_dir=other,
            checkpoint_keep=50,
        )
        full = CheckpointManager(other, keep_last=50).read_manifest()
        assert len(manifest["checkpoints"]) < len(full["checkpoints"])

    def test_checkpoint_overhead_does_not_change_results(self, tmp_path):
        x, y, blocks = _data()
        plain = _network()
        plain.fit(x, y, input_spec=blocks, schedule=_schedule())
        checkpointed = _network()
        checkpointed.fit(
            x, y, input_spec=blocks, schedule=_schedule(), checkpoint_dir=tmp_path
        )
        _assert_identical(plain, checkpointed, x)


class TestGuards:
    def test_resume_without_checkpoint_dir(self):
        x, y, blocks = _data()
        with pytest.raises(ConfigurationError, match="checkpoint_dir"):
            _network().fit(x, y, input_spec=blocks, schedule=_schedule(), resume=True)

    def test_fingerprint_guard_rejects_changed_schedule(self, tmp_path):
        x, y, blocks = _data()
        faults.install_plan(faults.FaultPlan("driver.kill@epoch=2,mode=raise"))
        with pytest.raises(FaultInjected):
            _network().fit(
                x, y, input_spec=blocks, schedule=_schedule(), checkpoint_dir=tmp_path
            )
        faults.install_plan(None)
        changed = TrainingSchedule(
            hidden_epochs=6, classifier_epochs=3, sgd_epochs=2, batch_size=32
        )
        with pytest.raises(CheckpointError, match="fingerprint"):
            _network().fit(
                x, y, input_spec=blocks, schedule=changed, checkpoint_dir=tmp_path, resume=True
            )

    def test_fingerprint_is_stable_and_sensitive(self):
        from repro.core import InputSpec

        x, _, blocks = _data()
        net_a, net_b = _network(), _network()
        for net in (net_a, net_b):
            net.hidden_layers[0].build(InputSpec(blocks))
        fp_a = training_fingerprint(net_a, _schedule(), x.shape)
        fp_b = training_fingerprint(net_b, _schedule(), x.shape)
        assert fp_a == fp_b
        changed = TrainingSchedule(
            hidden_epochs=5, classifier_epochs=3, sgd_epochs=2, batch_size=32
        )
        assert training_fingerprint(net_a, changed, x.shape) != fp_a

    def test_corrupt_checkpoint_refuses_resume(self, tmp_path):
        x, y, blocks = _data()
        faults.install_plan(faults.FaultPlan("driver.kill@epoch=3,mode=raise"))
        with pytest.raises(FaultInjected):
            _network().fit(
                x, y, input_spec=blocks, schedule=_schedule(), checkpoint_dir=tmp_path
            )
        faults.install_plan(None)
        latest = CheckpointManager(tmp_path).latest_path()
        data = bytearray(latest.read_bytes())
        data[len(data) // 2] ^= 0xFF
        latest.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            _network().fit(
                x, y, input_spec=blocks, schedule=_schedule(), checkpoint_dir=tmp_path,
                resume=True,
            )


#: One perturbation per ``TrainingSchedule`` field that changes a fit's numbers.
NUMBER_CHANGING_FIELDS = {
    "hidden_epochs": 5,
    "classifier_epochs": 4,
    "batch_size": 16,
    "sgd_epochs": 1,
    "weight_refresh_tol": 1e-3,
}


def _sized_network(n_hypercolumns=2, n_minicolumns=3, hyperparams=None, learning_rate=0.05):
    net = Network(seed=7)
    net.add(
        StructuralPlasticityLayer(n_hypercolumns, n_minicolumns, hyperparams=hyperparams, seed=8)
    )
    net.add(SGDClassifier(n_classes=2, learning_rate=learning_rate, seed=9))
    return net


#: One change to the architecture or the data shape per entry:
#: ``(network, input block sizes, x_shape)``.
ARCHITECTURE_VARIANTS = {
    "n_minicolumns": lambda: (_sized_network(n_minicolumns=4), [3, 4, 5], (96, 12)),
    "n_hypercolumns": lambda: (_sized_network(n_hypercolumns=3), [3, 4, 5], (96, 12)),
    "hidden_hyperparams": lambda: (
        _sized_network(hyperparams=BCPNNHyperParameters(taupdt=0.02)), [3, 4, 5], (96, 12)
    ),
    "head_kind": lambda: (_network(head="bcpnn"), [3, 4, 5], (96, 12)),
    "head_learning_rate": lambda: (_sized_network(learning_rate=0.1), [3, 4, 5], (96, 12)),
    "input_block_sizes": lambda: (_sized_network(), [4, 4, 4], (96, 12)),
    "n_rows": lambda: (_sized_network(), [3, 4, 5], (97, 12)),
}


def _fingerprint(net=None, blocks=(3, 4, 5), x_shape=(96, 12), schedule=None):
    net = net if net is not None else _sized_network()
    net.hidden_layers[0].build(InputSpec(list(blocks)))
    return training_fingerprint(net, schedule or _schedule(), x_shape)


class TestFingerprint:
    """A resume must agree on every input that changes a number, and only on those."""

    @pytest.mark.parametrize("field, value", sorted(NUMBER_CHANGING_FIELDS.items()))
    def test_number_changing_schedule_field_is_digested(self, field, value):
        changed = _schedule().replace(**{field: value})
        assert _fingerprint(schedule=changed) != _fingerprint()

    def test_pipeline_is_not_digested(self):
        assert _fingerprint(schedule=_schedule().replace(pipeline=True)) == _fingerprint()

    def test_every_schedule_field_is_classified(self):
        """A new schedule field is listed above as digested, or beside ``pipeline``."""
        names = {field.name for field in dataclasses.fields(TrainingSchedule)}
        assert names == set(NUMBER_CHANGING_FIELDS) | {"pipeline"}

    @pytest.mark.parametrize("variant", sorted(ARCHITECTURE_VARIANTS))
    def test_architecture_and_data_shape_are_digested(self, variant):
        net, blocks, x_shape = ARCHITECTURE_VARIANTS[variant]()
        assert _fingerprint(net, blocks, x_shape) != _fingerprint()


class TestCheckpointAsModel:
    def test_network_from_checkpoint_serves_predictions(self, tmp_path):
        """A checkpoint doubles as a loadable model (the /reload path)."""
        x, y, blocks = _data()
        net = _network()
        net.fit(x, y, input_spec=blocks, schedule=_schedule(), checkpoint_dir=tmp_path)
        latest = CheckpointManager(tmp_path).latest_path()
        loaded = network_from_checkpoint(latest)
        assert loaded.is_fitted
        assert np.array_equal(loaded.predict(x), net.predict(x))

    def test_checkpointer_requires_directory(self, tmp_path):
        x, y, blocks = _data()
        net = _network()
        checkpointer = TrainingCheckpointer(
            net, _schedule(), tmp_path / "sub", x_shape=x.shape
        )
        assert checkpointer.load_for_resume() is None
