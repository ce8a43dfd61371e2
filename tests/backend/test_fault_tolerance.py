"""Fault-tolerant training: an injected crash must not change the result.

The guarantee under test (``DistributedTrainer.train_layer`` on a transport
that can recover, ``comm.fault_tolerant``): when a worker rank dies
mid-epoch, the failed rank is respawned or re-admitted (tcp transport), the
layer is restored from the last completed epoch boundary, and the run
converges to *bitwise-identical* final weights, traces and mask as the
uninterrupted run, at ``weight_refresh_tol`` 0 and above — same shuffle
stream, same RNG state, same batch count.  No flag arms it; the thread and serial
transports cannot recover and raise.
"""

import numpy as np
import pytest

from repro import faults
from repro.backend.distributed import DistributedTrainer
from repro.comm import TCPComm, ThreadComm
from repro.core import BCPNNHyperParameters, StructuralPlasticityLayer
from repro.core.layers import InputSpec
from repro.exceptions import BackendError, DataError
from repro.utils.rng import as_rng


@pytest.fixture(autouse=True)
def _clean_plan():
    faults.install_plan(None)
    yield
    faults.install_plan(None)


def _make_layer(seed: int = 7, competition: str = "softmax") -> StructuralPlasticityLayer:
    hp = BCPNNHyperParameters(taupdt=0.05, density=0.5, competition=competition)
    layer = StructuralPlasticityLayer(2, 6, hyperparams=hp, seed=seed)
    layer.build(InputSpec.uniform(4, 3))
    return layer


def _make_data() -> np.ndarray:
    n, f, m = 64, 4, 3
    x = np.zeros((n, f * m))
    winners = np.random.default_rng(5).integers(0, m, size=(n, f))
    for b in range(f):
        x[np.arange(n), b * m + winners[:, b]] = 1.0
    return np.tile(x, (4, 1))


def _train(comm, crash=None, competition="softmax", max_restarts=2, weight_refresh_tol=0.0):
    """Train three epochs in the mode ``Network.fit`` uses (competitive);
    ``crash`` ("rank=r,epoch=e,batch=b") installs a ``worker.crash`` fault
    plan, the trainer's only source of crashes."""
    if crash is not None:
        faults.install_plan(faults.FaultPlan(f"worker.crash@{crash}"))
    layer = _make_layer(competition=competition)
    trainer = DistributedTrainer(comm)
    report = trainer.train_layer(
        layer,
        _make_data(),
        epochs=3,
        batch_size=64,
        rng=as_rng(5),
        shuffle=True,
        weight_refresh_tol=weight_refresh_tol,
        max_restarts=max_restarts,
    )
    return layer, report


# The stochastic mode is the hard case: its shard-shaped noise draws
# desynchronise the per-rank generators mid-epoch, so the guarantee depends
# on _sync_replica re-imposing rank 0's RNG state at every epoch boundary
# (the respawned worker can only replay from there).  A positive tolerance
# runs the stale-weights rule and the overlapped schedule across the
# respawn: the fresh worker's engine must enter with the same drift account
# as the ranks that survived.
@pytest.mark.parametrize("weight_refresh_tol", [0.0, 0.02])
@pytest.mark.parametrize("competition", ["softmax", "sample"])
def test_mid_epoch_crash_is_bitwise_invisible(competition, weight_refresh_tol):
    """Injected crash + recovery == uninterrupted run, bit for bit."""
    comm = TCPComm(3, timeout=60.0)
    try:
        base_layer, base_report = _train(
            comm, competition=competition, weight_refresh_tol=weight_refresh_tol
        )
    finally:
        comm.close()

    comm = TCPComm(3, timeout=60.0)
    try:
        ft_layer, ft_report = _train(
            comm,
            crash="rank=1,epoch=1,batch=2",
            competition=competition,
            weight_refresh_tol=weight_refresh_tol,
        )
    finally:
        comm.close()

    assert ft_report.extra["restarts"] == 1
    assert ft_report.global_batches == base_report.global_batches
    assert len(ft_report.extra["epoch_logs"]) == 3
    assert np.array_equal(ft_layer.weights, base_layer.weights)
    assert np.array_equal(ft_layer.traces.p_i, base_layer.traces.p_i)
    assert np.array_equal(ft_layer.traces.p_j, base_layer.traces.p_j)
    assert np.array_equal(ft_layer.traces.p_ij, base_layer.traces.p_ij)
    assert np.array_equal(ft_layer.plasticity.mask, base_layer.plasticity.mask)


@pytest.mark.parametrize(
    "make_comm, max_restarts",
    [
        (lambda: ThreadComm(2), 2),  # the thread transport cannot respawn a rank
        (lambda: TCPComm(2, timeout=60.0), 0),  # tcp can, but not past max_restarts
    ],
    ids=["thread", "tcp-max_restarts=0"],
)
def test_unrecoverable_crash_raises(make_comm, max_restarts):
    """A crash the transport cannot (or may no longer) recover is a hard error."""
    comm = make_comm()
    try:
        with pytest.raises(BackendError):
            _train(comm, crash="rank=1,epoch=0,batch=1", max_restarts=max_restarts)
    finally:
        comm.close()


def test_injection_validation():
    with ThreadComm(2) as comm:
        layer = _make_layer()
        trainer = DistributedTrainer(comm)
        faults.install_plan(faults.FaultPlan("worker.crash@rank=9,epoch=0,batch=0"))
        with pytest.raises(DataError, match="out of range"):
            trainer.train_layer(
                layer,
                _make_data(),
                epochs=1,
                batch_size=64,
                rng=as_rng(5),
            )
        faults.install_plan(None)
        with pytest.raises(DataError):
            trainer.train_layer(
                layer,
                _make_data(),
                epochs=1,
                batch_size=64,
                rng=as_rng(5),
                max_restarts=-1,
            )


class TestEdges:
    """The corners of the recovery protocol the happy-path test skips."""

    def test_crash_during_first_epoch_recovers_bitwise(self):
        """A crash before any epoch boundary restores the *attempt-start*
        snapshot — there is no completed boundary to roll back to."""
        with ThreadComm(3) as comm:
            base_layer, base_report = _train(comm)
        comm = TCPComm(3, timeout=60.0)
        try:
            ft_layer, ft_report = _train(comm, crash="rank=1,epoch=0,batch=0")
        finally:
            comm.close()
        assert ft_report.extra["restarts"] == 1
        assert np.array_equal(ft_layer.weights, base_layer.weights)
        assert np.array_equal(ft_layer.traces.p_ij, base_layer.traces.p_ij)
        assert np.array_equal(ft_layer.plasticity.mask, base_layer.plasticity.mask)

    def test_crashes_exceeding_max_restarts_raise_cleanly(self):
        """A worker.crash rule with count=2 re-arms across restarts; with
        max_restarts=1 the second genuine crash must surface as a clean
        BackendError, not a hang or a silent partial result."""
        faults.install_plan(
            faults.FaultPlan("worker.crash@rank=1,epoch=0,batch=1,count=2")
        )
        comm = TCPComm(3, timeout=60.0)
        try:
            layer = _make_layer()
            trainer = DistributedTrainer(comm)
            with pytest.raises(BackendError):
                trainer.train_layer(
                    layer,
                    _make_data(),
                    epochs=3,
                    batch_size=64,
                    rng=as_rng(5),
                    shuffle=True,
                    max_restarts=1,
                )
        finally:
            faults.install_plan(None)
            comm.close()

    def test_crash_mid_chunked_collective_on_tcp_recovers_bitwise(self):
        """chunk_bytes small enough that every allreduce is multi-frame: the
        crash lands mid-chunked-collective and recovery still converges."""
        base_comm = TCPComm(3, timeout=60.0, chunk_bytes=256)
        try:
            base_layer, _ = _train(base_comm)
        finally:
            base_comm.close()
        comm = TCPComm(3, timeout=60.0, chunk_bytes=256)
        try:
            ft_layer, ft_report = _train(comm, crash="rank=1,epoch=1,batch=2")
        finally:
            comm.close()
        assert ft_report.extra["restarts"] == 1
        assert np.array_equal(ft_layer.weights, base_layer.weights)
        assert np.array_equal(ft_layer.traces.p_ij, base_layer.traces.p_ij)


def test_uninjected_fault_tolerant_run_matches_plain_run():
    """Armed recovery on a healthy tcp run changes nothing (vs threads)."""
    with ThreadComm(3) as comm:
        plain_layer, plain_report = _train(comm)
    comm = TCPComm(3, timeout=60.0)
    try:
        ft_layer, ft_report = _train(comm)
    finally:
        comm.close()
    assert ft_report.extra["restarts"] == 0
    assert np.array_equal(ft_layer.weights, plain_layer.weights)
    assert np.array_equal(ft_layer.traces.p_ij, plain_layer.traces.p_ij)


def _history_key(history):
    return [(r.phase, r.layer_name, r.epoch, sorted(r.metrics.items())) for r in history.records]


@pytest.mark.parametrize("competition", ["softmax", "sample"])
def test_fit_recovers_a_crashed_rank_without_a_flag(caplog, competition):
    """``Network.fit`` over tcp recovers a dead rank with no flag set; the
    network's weights and history equal the crash-free fit bitwise."""
    from repro.core import Network, SGDClassifier, TrainingSchedule

    x = _make_data()
    y = np.random.default_rng(3).integers(0, 2, x.shape[0])

    def fit():
        net = Network(seed=2)
        net.add(_make_layer(competition=competition))
        net.add(SGDClassifier(n_classes=2, seed=4))
        schedule = TrainingSchedule(hidden_epochs=3, classifier_epochs=2, batch_size=64)
        net.fit(x, y, input_spec=InputSpec.uniform(4, 3), schedule=schedule,
                comm="tcp://127.0.0.1:0?ranks=2")
        return net

    base = fit()
    faults.install_plan(faults.FaultPlan("worker.crash@rank=1,epoch=1,batch=2"))
    recovered = fit()
    assert "from epoch 1 (restart 1/2)" in caplog.text

    assert np.array_equal(recovered.hidden_layers[0].weights, base.hidden_layers[0].weights)
    assert np.array_equal(recovered.head.weights, base.head.weights)
    assert _history_key(recovered.history) == _history_key(base.history)


class TestDelayedFrames:
    """``tcp.delay`` (the chaos job's flaky link) slows frames, never the numbers."""

    @pytest.mark.parametrize("competition", ["softmax", "sample"])
    def test_a_delayed_link_trains_bitwise_the_same(self, competition):
        comm = TCPComm(2, timeout=60.0)
        try:
            plain, _ = _train(comm, competition=competition)
            plan = faults.FaultPlan("tcp.delay@p=0.5,seconds=0.001", seed=3)
            faults.install_plan(plan)
            delayed, _ = _train(comm, competition=competition)
        finally:
            faults.install_plan(None)
            comm.close()
        assert plan.fired and {f["site"] for f in plan.fired} == {"tcp.delay"}
        assert np.array_equal(plain.traces.p_ij, delayed.traces.p_ij)
        assert np.array_equal(plain.weights, delayed.weights)
        assert np.array_equal(plain.plasticity.mask, delayed.plasticity.mask)
