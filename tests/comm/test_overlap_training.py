"""Communication-overlapped training and sparse-packed payloads (ISSUE 6).

Contracts under test:

* at ``weight_refresh_tol=0`` every ``comm_overlap`` mode degrades to the
  blocking schedule, bit-for-bit (no ``iallreduce`` issued);
* at ``tol > 0`` the overlapped schedule is transport-invariant — equal
  rank counts produce bitwise-identical traces on thread and tcp
  transports, and every rank count stays within epsilon of the serial
  single-rank reference;
* sparse-packed payloads engage exactly in the frozen-mask tail of a run
  with structural plasticity on, reduce strictly fewer floats, and leave
  the mask, the active-entry traces and the layer's predictions
  bitwise-identical to dense packing (silent entries decay, by contract).
"""

import numpy as np
import pytest

from repro import kernels
from repro.backend.distributed import DistributedTrainer
from repro.comm import SerialComm, TCPComm, ThreadComm
from repro.core import BCPNNHyperParameters, InputSpec, StructuralPlasticityLayer
from repro.exceptions import DataError

INPUT_SIZES = [4, 4, 4]
# epochs=5 with mask_update_period=2 swaps after epochs 1 and 3, leaving
# epoch 4 as the frozen-mask tail where sparse payloads may engage.
EPOCHS = 5


@pytest.fixture(scope="module")
def dataset():
    return np.random.default_rng(0).random((192, 12))


@pytest.fixture(scope="module")
def tcp_pool():
    comm = TCPComm(2, timeout=60.0)
    yield comm
    comm.close()


def _train(comm, x, tol, comm_overlap="auto", sparse_payload="auto", density=0.5):
    hyperparams = BCPNNHyperParameters(
        taupdt=0.05, density=density, mask_update_period=2
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
        sparse_payload=sparse_payload,
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
            with pytest.raises(DataError):
                _train(comm, dataset, tol=0.0, sparse_payload="maybe")


class TestSparsePayloads:
    def test_sparse_packing_engages_only_after_mask_freezes(self, dataset):
        with SerialComm() as comm:
            _, report = _train(comm, dataset, tol=0.0, sparse_payload="auto")
        flags = [log["sparse_payload"] for log in report.extra["epoch_logs"]]
        assert flags == [0.0, 0.0, 0.0, 0.0, 1.0]
        floats = [log["payload_floats"] for log in report.extra["epoch_logs"]]
        assert floats[-1] < floats[0], "sparse packing must shrink the payload"

    def test_sparse_payload_matches_dense_over_a_full_plastic_run(self, dataset):
        with SerialComm() as comm:
            dense, _ = _train(comm, dataset, tol=0.0, sparse_payload="off")
        with SerialComm() as comm:
            sparse, _ = _train(comm, dataset, tol=0.0, sparse_payload="auto")
        assert np.array_equal(dense.plasticity.mask, sparse.plasticity.mask)
        assert np.array_equal(dense.traces.p_i, sparse.traces.p_i)
        assert np.array_equal(dense.traces.p_j, sparse.traces.p_j)
        # Active-entry traces match bitwise; silent entries merely decay
        # under sparse packing (never read by forwards or plasticity again).
        active = kernels.expand_mask(
            sparse.plasticity.mask, INPUT_SIZES, sparse.hidden_sizes
        ).astype(bool)
        assert np.array_equal(dense.traces.p_ij[active], sparse.traces.p_ij[active])
        probe = np.random.default_rng(1).random((20, 12))
        assert np.array_equal(dense.forward(probe), sparse.forward(probe))

    def test_sparse_payload_with_overlap_is_transport_invariant(self, dataset, tcp_pool):
        with ThreadComm(2) as comm:
            threaded, _ = _train(comm, dataset, tol=0.05, sparse_payload="on")
        socketed, report = _train(tcp_pool, dataset, tol=0.05, sparse_payload="on")
        assert np.array_equal(threaded.traces.p_ij, socketed.traces.p_ij)
        assert np.array_equal(threaded.plasticity.mask, socketed.plasticity.mask)
        assert report.extra["epoch_logs"][-1]["sparse_payload"] == 1.0

    def test_full_density_mask_stays_dense_on_auto(self, dataset):
        with SerialComm() as comm:
            _, report = _train(
                comm, dataset, tol=0.0, sparse_payload="auto", density=1.0
            )
        flags = [log["sparse_payload"] for log in report.extra["epoch_logs"]]
        assert flags == [0.0] * EPOCHS
