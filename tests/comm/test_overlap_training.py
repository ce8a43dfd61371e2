"""Communication-overlapped training.

Contracts under test:

* at ``weight_refresh_tol=0`` every ``comm_overlap`` mode degrades to the
  blocking schedule, bit-for-bit (no ``iallreduce`` issued);
* at ``tol > 0`` the overlapped schedule is transport-invariant — equal
  rank counts produce bitwise-identical traces on thread and tcp
  transports, and every rank count stays within epsilon of the serial
  single-rank reference (deterministic ``softmax`` competition: the
  ``sample`` rule draws shard-shaped noise, so its rank counts differ).
"""

import numpy as np
import pytest

from repro.backend.distributed import DistributedTrainer
from repro.comm import SerialComm, TCPComm, ThreadComm
from repro.core import BCPNNHyperParameters, InputSpec, StructuralPlasticityLayer
from repro.exceptions import DataError

INPUT_SIZES = [4, 4, 4]
# epochs=5 with mask_update_period=2 swaps after epochs 1 and 3.
EPOCHS = 5


@pytest.fixture(scope="module")
def dataset():
    return np.random.default_rng(0).random((192, 12))


@pytest.fixture(scope="module")
def tcp_pool():
    comm = TCPComm(2, timeout=60.0)
    yield comm
    comm.close()


def _train(comm, x, tol, comm_overlap="auto"):
    hyperparams = BCPNNHyperParameters(
        taupdt=0.05, density=0.5, competition="softmax", mask_update_period=2
    )
    layer = StructuralPlasticityLayer(2, 5, hyperparams=hyperparams, seed=7)
    layer.build(InputSpec(INPUT_SIZES))
    report = DistributedTrainer(comm).train_layer(
        layer,
        x,
        epochs=EPOCHS,
        batch_size=48,
        rng=np.random.default_rng(3),
        weight_refresh_tol=tol,
        comm_overlap=comm_overlap,
    )
    return layer, report


class TestOverlapSchedule:
    def test_tol_zero_is_bitwise_blocking_on_every_mode(self, dataset):
        with SerialComm() as comm:
            reference, _ = _train(comm, dataset, tol=0.0, comm_overlap="off")
        for mode in ("auto", "on"):
            with SerialComm() as comm:
                layer, report = _train(comm, dataset, tol=0.0, comm_overlap=mode)
            assert np.array_equal(reference.traces.p_ij, layer.traces.p_ij)
            assert np.array_equal(reference.plasticity.mask, layer.plasticity.mask)
            assert report.extra["iallreduce_calls"] == 0

    def test_overlap_issues_nonblocking_reductions(self, dataset):
        with SerialComm() as comm:
            _, report = _train(comm, dataset, tol=0.05, comm_overlap="on")
        assert report.extra["iallreduce_calls"] == report.global_batches

    def test_equal_rank_counts_are_bitwise_across_transports(self, dataset, tcp_pool):
        with ThreadComm(2) as comm:
            threaded, _ = _train(comm, dataset, tol=0.05)
        socketed, report = _train(tcp_pool, dataset, tol=0.05)
        assert np.array_equal(threaded.traces.p_ij, socketed.traces.p_ij)
        assert np.array_equal(threaded.traces.p_i, socketed.traces.p_i)
        assert np.array_equal(threaded.plasticity.mask, socketed.plasticity.mask)
        assert report.extra["iallreduce_calls"] > 0

    def test_overlapped_stays_within_epsilon_of_serial(self, dataset, tcp_pool):
        """Rank counts differ in shard-sum float order only: the overlapped
        one-batch-stale schedule itself is rank-count-invariant."""
        with SerialComm() as comm:
            serial, _ = _train(comm, dataset, tol=0.05)
        with ThreadComm(2) as comm:
            threaded, _ = _train(comm, dataset, tol=0.05)
        socketed, _ = _train(tcp_pool, dataset, tol=0.05)
        probe = np.random.default_rng(1).random((20, 12))
        for other in (threaded, socketed):
            assert np.allclose(serial.traces.p_ij, other.traces.p_ij, atol=1e-9)
            assert np.array_equal(serial.plasticity.mask, other.plasticity.mask)
            assert np.allclose(serial.forward(probe), other.forward(probe), atol=1e-9)

    def test_invalid_modes_are_rejected(self, dataset):
        with SerialComm() as comm:
            with pytest.raises(DataError):
                _train(comm, dataset, tol=0.0, comm_overlap="yes")
