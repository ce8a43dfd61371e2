"""Fault-tolerant training: an injected crash must not change the result.

The guarantee under test (``DistributedTrainer.train_layer`` with
``fault_tolerance=True``): when a worker rank dies mid-epoch, the failed
rank is respawned or re-admitted (tcp transport), the layer is restored
from the last completed epoch boundary, and the run converges to
*bitwise-identical* final weights, traces and mask as the uninterrupted run
at ``weight_refresh_tol=0`` — same shuffle stream, same RNG state, same
batch count.
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


def _train(comm, crash=None, fault_tolerance=False, competition="softmax"):
    """Train three epochs; ``crash`` ("rank=r,epoch=e,batch=b") installs a
    ``worker.crash`` fault plan, the trainer's only source of crashes."""
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
        fault_tolerance=fault_tolerance,
    )
    return layer, report


# The stochastic mode is the hard case: its shard-shaped noise draws
# desynchronise the per-rank generators mid-epoch, so the guarantee depends
# on _sync_replica re-imposing rank 0's RNG state at every epoch boundary
# (the respawned worker can only replay from there).
@pytest.mark.parametrize("competition", ["softmax", "sample"])
def test_mid_epoch_crash_is_bitwise_invisible(competition):
    """Injected crash + recovery == uninterrupted run, bit for bit (tol=0)."""
    comm = TCPComm(3, timeout=60.0)
    try:
        base_layer, base_report = _train(comm, competition=competition)
    finally:
        comm.close()

    comm = TCPComm(3, timeout=60.0)
    try:
        ft_layer, ft_report = _train(
            comm,
            crash="rank=1,epoch=1,batch=2",
            fault_tolerance=True,
            competition=competition,
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


def test_crash_without_fault_tolerance_raises():
    """fault_tolerance=False keeps the historical contract: a hard error."""
    with ThreadComm(2) as comm:
        with pytest.raises(BackendError):
            _train(comm, crash="rank=0,epoch=0,batch=0")


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
                fault_tolerance=True,
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
            ft_layer, ft_report = _train(
                comm, crash="rank=1,epoch=0,batch=0", fault_tolerance=True
            )
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
                    fault_tolerance=True,
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
            ft_layer, ft_report = _train(
                comm, crash="rank=1,epoch=1,batch=2", fault_tolerance=True
            )
        finally:
            comm.close()
        assert ft_report.extra["restarts"] == 1
        assert np.array_equal(ft_layer.weights, base_layer.weights)
        assert np.array_equal(ft_layer.traces.p_ij, base_layer.traces.p_ij)


def test_uninjected_fault_tolerant_run_matches_plain_run():
    """fault_tolerance=True on a healthy run changes nothing (thread transport)."""
    with ThreadComm(3) as comm:
        plain_layer, plain_report = _train(comm)
    with ThreadComm(3) as comm:
        ft_layer, ft_report = _train(comm, fault_tolerance=True)
    assert ft_report.extra["restarts"] == 0
    assert np.array_equal(ft_layer.weights, plain_layer.weights)
    assert np.array_equal(ft_layer.traces.p_ij, plain_layer.traces.p_ij)
