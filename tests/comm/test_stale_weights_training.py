"""Stale-weights training over comm routes: one blocking schedule.

Contracts under test, at ``weight_refresh_tol`` 0 and above it, with mask
swaps inside the run:

* every global batch is one blocking ``allreduce`` (plus one for the first
  batch's calibration mean), whatever the tolerance;
* equal rank counts produce bitwise-identical traces and masks on thread
  and tcp transports, for either competition;
* every rank count stays within epsilon of the single-rank run under the
  deterministic ``softmax`` competition (the ``sample`` rule draws
  shard-shaped noise, so its rank counts differ);
* a crashed rank, recovered mid-run, trains what the uninterrupted run
  trains.
"""

import numpy as np
import pytest

from repro import faults
from repro.backend.distributed import DistributedTrainer
from repro.comm import SerialComm, TCPComm, ThreadComm
from repro.core import BCPNNHyperParameters, InputSpec, StructuralPlasticityLayer

INPUT_SIZES = [4, 4, 4]
# epochs=5 with mask_update_period=2 swaps after epochs 1 and 3.
EPOCHS, BATCH = 5, 48
TOLERANCES = [0.0, 0.05]


@pytest.fixture(scope="module")
def dataset():
    return np.random.default_rng(0).random((192, 12))


@pytest.fixture(scope="module")
def tcp_pool():
    comm = TCPComm(2, timeout=60.0)
    yield comm
    comm.close()


@pytest.fixture(autouse=True)
def _clean_plan():
    faults.install_plan(None)
    yield
    faults.install_plan(None)


def _comm(name, tcp_pool):
    if name == "tcp:2":
        return tcp_pool
    if name == "serial":
        return SerialComm()
    return ThreadComm(int(name.split(":")[1]))


def _train(comm, x, tol, competition="softmax"):
    hyperparams = BCPNNHyperParameters(
        taupdt=0.05, density=0.5, competition=competition, mask_update_period=2
    )
    layer = StructuralPlasticityLayer(2, 5, hyperparams=hyperparams, seed=7)
    layer.build(InputSpec(INPUT_SIZES))
    report = DistributedTrainer(comm).train_layer(
        layer,
        x,
        epochs=EPOCHS,
        batch_size=BATCH,
        rng=np.random.default_rng(3),
        weight_refresh_tol=tol,
    )
    return layer, report


@pytest.mark.parametrize("tol", TOLERANCES)
@pytest.mark.parametrize("transport", ["serial", "thread:2", "tcp:2"])
def test_one_blocking_allreduce_per_batch(dataset, tcp_pool, transport, tol):
    comm = _comm(transport, tcp_pool)
    before = comm.collective_calls["allreduce"]
    _, report = _train(comm, dataset, tol)
    assert comm.collective_calls["allreduce"] - before == report.allreduce_calls
    assert report.allreduce_calls == report.global_batches + 1
    assert report.global_batches == EPOCHS * (dataset.shape[0] // BATCH)
    assert "iallreduce" not in comm.collective_calls
    assert "iallreduce_calls" not in report.extra


@pytest.mark.parametrize("tol", TOLERANCES)
@pytest.mark.parametrize("competition", ["sample", "softmax"])
def test_equal_rank_counts_are_bitwise_across_transports(dataset, tcp_pool, competition, tol):
    with ThreadComm(2) as comm:
        threaded, _ = _train(comm, dataset, tol, competition)
    socketed, _ = _train(tcp_pool, dataset, tol, competition)
    for name in ("p_i", "p_j", "p_ij"):
        assert np.array_equal(getattr(threaded.traces, name), getattr(socketed.traces, name))
    assert np.array_equal(threaded.plasticity.mask, socketed.plasticity.mask)


@pytest.mark.parametrize("tol", TOLERANCES)
@pytest.mark.parametrize("transport", ["thread:2", "thread:3", "tcp:2"])
def test_rank_counts_stay_within_epsilon_of_one_rank(dataset, tcp_pool, transport, tol):
    """Rank counts differ in shard-sum float order only: the refresh
    decisions of stale-weights caching are rank-count-invariant."""
    with SerialComm() as comm:
        serial, _ = _train(comm, dataset, tol)
    other, _ = _train(_comm(transport, tcp_pool), dataset, tol)
    probe = np.random.default_rng(1).random((20, 12))
    assert np.allclose(serial.traces.p_ij, other.traces.p_ij, atol=1e-9)
    assert np.array_equal(serial.plasticity.mask, other.plasticity.mask)
    assert np.allclose(serial.forward(probe), other.forward(probe), atol=1e-9)


@pytest.mark.parametrize("tol", TOLERANCES)
def test_recovered_run_trains_what_the_uninterrupted_run_trains(dataset, tol):
    def train(crash=None):
        if crash is not None:
            faults.install_plan(faults.FaultPlan(f"worker.crash@{crash}"))
        with TCPComm(2, timeout=60.0) as comm:
            return _train(comm, dataset, tol)

    recovered, report = train(crash="rank=1,epoch=2,batch=2")
    faults.install_plan(None)
    clean, _ = train()
    assert report.extra["restarts"] == 1
    for name in ("p_i", "p_j", "p_ij"):
        assert np.array_equal(getattr(recovered.traces, name), getattr(clean.traces, name))
    assert np.array_equal(recovered.plasticity.mask, clean.plasticity.mask)


def test_comm_overlap_is_not_an_option(dataset):
    """Comm routes have one schedule: there is no overlap switch to pass."""
    with SerialComm() as comm:
        layer = StructuralPlasticityLayer(2, 5, seed=7)
        layer.build(InputSpec(INPUT_SIZES))
        with pytest.raises(TypeError, match="comm_overlap"):
            DistributedTrainer(comm).train_layer(
                layer, dataset, epochs=1, batch_size=BATCH, rng=np.random.default_rng(3),
                weight_refresh_tol=0.05, comm_overlap=True,
            )
