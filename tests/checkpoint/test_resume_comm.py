"""Data-parallel checkpoint/resume on the tcp transport.

The acceptance-critical guarantee: a driver killed at an epoch boundary of
comm training, resumed with ``resume=True`` on the same transport, produces
final weights, predictions and history bitwise-identical to the
uninterrupted run at ``weight_refresh_tol=0``.
"""

import numpy as np
import pytest

from repro import faults
from repro.core import (
    BCPNNHyperParameters,
    Network,
    SGDClassifier,
    StructuralPlasticityLayer,
    TrainingSchedule,
)
from repro.exceptions import ConfigurationError, FaultInjected


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


def _network(seed=7, competition="softmax"):
    net = Network(seed=seed)
    hyperparams = BCPNNHyperParameters(competition=competition)
    net.add(
        StructuralPlasticityLayer(
            n_hypercolumns=2, n_minicolumns=3, hyperparams=hyperparams, seed=seed + 1
        )
    )
    net.add(SGDClassifier(n_classes=2, seed=seed + 2))
    return net


def _schedule():
    return TrainingSchedule(hidden_epochs=4, classifier_epochs=3, sgd_epochs=2, batch_size=32)


def _history_key(history):
    return [(r.phase, r.layer_name, r.epoch, sorted(r.metrics.items())) for r in history.records]


def test_driver_kill_then_resume_is_bitwise_identical(tmp_path):
    x, y, blocks = _data()
    kw = dict(
        input_spec=blocks,
        schedule=_schedule(),
        comm="tcp://127.0.0.1:0?ranks=2",
    )

    baseline = _network()
    hist_a = baseline.fit(x, y, **kw)

    faults.install_plan(faults.FaultPlan("driver.kill@epoch=2,mode=raise"))
    interrupted = _network()
    with pytest.raises(FaultInjected):
        interrupted.fit(x, y, checkpoint_dir=tmp_path, **kw)
    faults.install_plan(None)

    resumed = _network()
    hist_c = resumed.fit(x, y, checkpoint_dir=tmp_path, resume=True, **kw)

    assert np.array_equal(baseline.head.weights, resumed.head.weights)
    la, lc = baseline.hidden_layers[0], resumed.hidden_layers[0]
    assert np.array_equal(la.traces.p_ij, lc.traces.p_ij)
    assert np.array_equal(la.plasticity.mask, lc.plasticity.mask)
    assert np.array_equal(baseline.predict(x), resumed.predict(x))
    assert _history_key(hist_a) == _history_key(hist_c)


@pytest.mark.parametrize("competition", ["softmax", "sample"])
def test_rank_crash_inside_a_resumed_fit_is_bitwise_invisible(tmp_path, caplog, competition):
    """Checkpoint resume and crash recovery are one restart path: a rank that
    dies inside the resumed program is recovered from the resumed boundary,
    and the run still ends bitwise-equal to the uninterrupted fit."""
    x, y, blocks = _data()
    kw = dict(input_spec=blocks, schedule=_schedule(), comm="tcp://127.0.0.1:0?ranks=2")

    baseline = _network(competition=competition)
    hist_a = baseline.fit(x, y, **kw)

    faults.install_plan(faults.FaultPlan("driver.kill@epoch=1,mode=raise"))
    with pytest.raises(FaultInjected):
        _network(competition=competition).fit(x, y, checkpoint_dir=tmp_path, **kw)
    faults.install_plan(faults.FaultPlan("worker.crash@rank=1,epoch=2,batch=1"))
    resumed = _network(competition=competition)
    hist_c = resumed.fit(x, y, checkpoint_dir=tmp_path, resume=True, **kw)
    # Recovered in the resumed epoch, from the boundary the resume entered at.
    assert "from epoch 2 (restart 1/2)" in caplog.text

    la, lc = baseline.hidden_layers[0], resumed.hidden_layers[0]
    assert np.array_equal(la.weights, lc.weights)
    assert np.array_equal(la.plasticity.mask, lc.plasticity.mask)
    assert np.array_equal(baseline.head.weights, resumed.head.weights)
    assert np.array_equal(baseline.predict(x), resumed.predict(x))
    assert _history_key(hist_a) == _history_key(hist_c)


def test_comm_resume_matches_thread_transport(tmp_path):
    """The cheap in-process transport gets the same resume guarantee."""
    x, y, blocks = _data()
    kw = dict(input_spec=blocks, schedule=_schedule(), comm="thread:2")
    baseline = _network()
    baseline.fit(x, y, **kw)

    faults.install_plan(faults.FaultPlan("driver.kill@epoch=1,mode=raise"))
    with pytest.raises(FaultInjected):
        _network().fit(x, y, checkpoint_dir=tmp_path, **kw)
    faults.install_plan(None)

    resumed = _network()
    resumed.fit(x, y, checkpoint_dir=tmp_path, resume=True, **kw)
    assert np.array_equal(baseline.predict(x), resumed.predict(x))
    assert np.array_equal(
        baseline.hidden_layers[0].traces.p_ij, resumed.hidden_layers[0].traces.p_ij
    )


class TestCrossModeGuards:
    def _mid_hidden_checkpoint(self, tmp_path, **fit_kw):
        x, y, blocks = _data()
        faults.install_plan(faults.FaultPlan("driver.kill@epoch=1,mode=raise"))
        with pytest.raises(FaultInjected):
            _network().fit(
                x, y, input_spec=blocks, schedule=_schedule(), checkpoint_dir=tmp_path, **fit_kw
            )
        faults.install_plan(None)
        return x, y, blocks

    def test_comm_checkpoint_refuses_serial_resume(self, tmp_path):
        x, y, blocks = self._mid_hidden_checkpoint(tmp_path, comm="thread:2")
        with pytest.raises(ConfigurationError, match="execution mode"):
            _network().fit(
                x, y, input_spec=blocks, schedule=_schedule(), checkpoint_dir=tmp_path,
                resume=True,
            )

    def test_serial_checkpoint_refuses_comm_resume(self, tmp_path):
        x, y, blocks = self._mid_hidden_checkpoint(tmp_path)
        with pytest.raises(ConfigurationError, match="serial"):
            _network().fit(
                x, y, input_spec=blocks, schedule=_schedule(), checkpoint_dir=tmp_path,
                resume=True, comm="thread:2",
            )
