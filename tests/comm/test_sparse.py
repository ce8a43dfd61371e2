"""Sparse execution under the comm transports.

Data-parallel training with the block-sparse plan stays rank-invariant on
every transport: each replica compiles the same mask, so it takes the same
plan as rank 0.
"""

import numpy as np
import pytest

from repro.backend.distributed import DistributedTrainer
from repro.comm import SerialComm, TCPComm, ThreadComm
from repro.core import BCPNNHyperParameters, InputSpec, StructuralPlasticityLayer
from repro.instrumentation.pipeline_bench import _pinned_density_threshold as pinned_threshold
from repro.utils.rng import as_rng

ATOL = 1e-9
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


def _train_sparse(comm, x, seed=7):
    """Train at density 0.4 (one of three input hypercolumns: sparse plan)."""
    hyperparams = BCPNNHyperParameters(taupdt=0.05, density=0.4, competition="softmax")
    layer = StructuralPlasticityLayer(2, 6, hyperparams=hyperparams, seed=seed)
    layer.build(InputSpec(SIZES))
    DistributedTrainer(comm).train_layer(
        layer, x, epochs=2, batch_size=64, rng=as_rng(5), shuffle=True
    )
    return layer


class TestSparseRankInvariance:
    @pytest.fixture(scope="class")
    def data(self):
        return _one_hot(256, SIZES, seed=0)

    @pytest.fixture(scope="class")
    def reference(self, data):
        with SerialComm() as comm:
            layer = _train_sparse(comm, data)
        assert layer.sparse_active
        return layer

    def test_thread_matches_serial(self, data, reference):
        with ThreadComm(3) as comm:
            layer = _train_sparse(comm, data)
        assert np.allclose(layer.traces.p_ij, reference.traces.p_ij, atol=ATOL)
        assert np.array_equal(layer.plasticity.mask, reference.plasticity.mask)

    def test_tcp_matches_serial(self, data, reference):
        with TCPComm(2, timeout=120.0) as comm:
            layer = _train_sparse(comm, data)
        assert np.allclose(layer.traces.p_ij, reference.traces.p_ij, atol=ATOL)
        assert np.array_equal(layer.plasticity.mask, reference.plasticity.mask)

    def test_sparse_matches_dense_training(self, data):
        with SerialComm() as comm:
            sparse = _train_sparse(comm, data, seed=7)
        with SerialComm() as comm, pinned_threshold(0.0):
            dense = _train_sparse(comm, data, seed=7)
        assert not dense.sparse_active
        assert np.allclose(sparse.traces.p_ij, dense.traces.p_ij, atol=ATOL)
        assert np.array_equal(sparse.plasticity.mask, dense.plasticity.mask)

    def test_pipelined_stale_weights_sparse_stays_rank_invariant(self, data):
        """sparse + the overlapped schedule of weight_refresh_tol > 0,
        threads vs serial."""

        def train(comm):
            hyperparams = BCPNNHyperParameters(
                taupdt=0.05, density=0.4, competition="softmax"
            )
            layer = StructuralPlasticityLayer(2, 6, hyperparams=hyperparams, seed=11)
            layer.build(InputSpec(SIZES))
            DistributedTrainer(comm).train_layer(
                layer, data, epochs=2, batch_size=64, rng=as_rng(5), shuffle=True,
                weight_refresh_tol=0.02,
            )
            return layer

        with SerialComm() as comm:
            reference = train(comm)
        with ThreadComm(2) as comm:
            layer = train(comm)
        assert np.allclose(layer.traces.p_ij, reference.traces.p_ij, atol=ATOL)
        assert np.array_equal(layer.plasticity.mask, reference.plasticity.mask)

