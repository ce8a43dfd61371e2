"""Sparse execution under the comm transports.

* data-parallel training with the block-sparse plan stays rank-invariant on
  every transport (each replica compiles the same mask, so it takes the same
  plan as rank 0);
* tcp-transport sharded bulk inference caches worker-resident model
  replicas keyed on the model token: the npz blob is broadcast once per model
  version, not once per call, and a retrain invalidates the cache.
"""

import numpy as np
import pytest

from repro.backend.distributed import DistributedTrainer
from repro.comm import SerialComm, TCPComm, ThreadComm
from repro.core import (
    BCPNNClassifier,
    BCPNNHyperParameters,
    InputSpec,
    Network,
    StructuralPlasticityLayer,
    TrainingSchedule,
)
from repro.instrumentation.pipeline_bench import _pinned_density_threshold as pinned_threshold
from repro.serving import StreamingPredictor
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
        layer, x, epochs=2, batch_size=64, rng=as_rng(5), shuffle=True,
        mode="competitive",
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
                mode="competitive", weight_refresh_tol=0.02,
            )
            return layer

        with SerialComm() as comm:
            reference = train(comm)
        with ThreadComm(2) as comm:
            layer = train(comm)
        assert np.allclose(layer.traces.p_ij, reference.traces.p_ij, atol=ATOL)
        assert np.array_equal(layer.plasticity.mask, reference.plasticity.mask)


def _fitted_network(seed=3, epochs=1):
    x = _one_hot(192, SIZES, seed=1)
    y = (np.arange(192) % 2).astype(np.int64)
    network = Network(seed=seed)
    network.add(StructuralPlasticityLayer(2, 5, density=0.4, seed=seed + 1))
    network.add(BCPNNClassifier(n_classes=2))
    network.fit(
        x, y, input_spec=InputSpec(SIZES),
        schedule=TrainingSchedule(hidden_epochs=epochs, classifier_epochs=1,
                                  batch_size=64),
    )
    return network, x, y


class TestServingReplicaCache:
    def test_blob_broadcast_once_per_model_version(self):
        network, x, _ = _fitted_network()
        with TCPComm(2, timeout=120.0) as comm:
            predictor = StreamingPredictor(network, batch_size=64, comm=comm)
            first = predictor.predict_stream(x)
            bcasts_after_first = comm.collective_calls["bcast"]
            second = predictor.predict_stream(x)
            bcasts_after_second = comm.collective_calls["bcast"]
            assert np.array_equal(first, second)
            # The second call reused the worker-resident replica: no model
            # broadcast happened (scatter/allgather still run per call).
            assert bcasts_after_second == bcasts_after_first
            # Probabilities share the cache too.
            predictor.predict_proba_stream(x)
            assert comm.collective_calls["bcast"] == bcasts_after_first

    def test_retraining_invalidates_the_replica(self):
        network, x, y = _fitted_network()
        with TCPComm(2, timeout=120.0) as comm:
            predictor = StreamingPredictor(network, batch_size=64, comm=comm)
            predictor.predict_stream(x)
            baseline_bcasts = comm.collective_calls["bcast"]
            # Retrain: every layer's refresh token moves, the serving token
            # changes, and the next call must re-broadcast the new model.
            network.fit(
                x, y, input_spec=InputSpec(SIZES),
                schedule=TrainingSchedule(hidden_epochs=1, classifier_epochs=1,
                                          batch_size=64),
            )
            fresh = StreamingPredictor(network, batch_size=64, comm=comm)
            updated = fresh.predict_stream(x)
            assert comm.collective_calls["bcast"] > baseline_bcasts
            # And the refreshed replica serves the retrained model's outputs.
            assert np.array_equal(updated, network.predict(x))

    def test_two_models_on_one_comm_never_share_a_replica(self):
        """Counter collisions must not alias different models' caches.

        Two networks freshly loaded from disk have identical counter
        trajectories; the per-instance nonce in the serving token keeps
        their worker replicas apart.
        """
        from repro.core.serialization import network_from_bytes, network_to_bytes

        network_a, x, _ = _fitted_network(seed=3)
        # A structurally identical but differently-trained model whose
        # counters coincide with A's after a save/load round trip.
        network_b, _, _ = _fitted_network(seed=9)
        loaded_a = network_from_bytes(network_to_bytes(network_a))
        loaded_b = network_from_bytes(network_to_bytes(network_b))
        with TCPComm(2, timeout=120.0) as comm:
            pred_a = StreamingPredictor(loaded_a, batch_size=64, comm=comm)
            pred_b = StreamingPredictor(loaded_b, batch_size=64, comm=comm)
            out_a = pred_a.predict_proba_stream(x)
            out_b = pred_b.predict_proba_stream(x)
        np.testing.assert_allclose(out_a, loaded_a.predict_proba(x), atol=1e-12)
        np.testing.assert_allclose(out_b, loaded_b.predict_proba(x), atol=1e-12)

    def test_failed_program_does_not_poison_the_token(self):
        """A failed run must not leave the driver believing the workers
        cached the replica (the next call must re-broadcast)."""
        from repro.exceptions import DataError as ReproDataError

        network, x, _ = _fitted_network()
        with TCPComm(2, timeout=120.0) as comm:
            predictor = StreamingPredictor(network, batch_size=64, comm=comm)
            # Sabotage the first program: rows with the wrong width blow up
            # inside every rank before the replica is cached as "current".
            with pytest.raises(Exception):
                predictor.predict_stream(np.ones((8, 3)))
            assert getattr(comm, "_serving_replica_token", None) is None
            # The communicator recovers and the next call serves correctly.
            out = predictor.predict_stream(x)
            assert np.array_equal(out, network.predict(x))

    def test_mask_mutation_invalidates_the_replica(self):
        """set_density mutates the mask without a weight refresh; the mask
        token must still move the serving token so workers re-ship."""
        network, x, _ = _fitted_network()
        with TCPComm(2, timeout=120.0) as comm:
            predictor = StreamingPredictor(network, batch_size=64, comm=comm)
            predictor.predict_proba_stream(x)
            network.hidden_layers[0].set_density(0.8)
            fresh = StreamingPredictor(network, batch_size=64, comm=comm)
            sharded = fresh.predict_proba_stream(x)
        local = StreamingPredictor(network, batch_size=64)
        np.testing.assert_allclose(sharded, local.predict_proba_stream(x), atol=1e-12)

    def test_cached_replica_results_match_local(self):
        network, x, _ = _fitted_network()
        with TCPComm(2, timeout=120.0) as comm:
            predictor = StreamingPredictor(network, batch_size=64, comm=comm)
            predictor.predict_stream(x)  # populate the cache
            proba = predictor.predict_proba_stream(x)  # served from the cache
        local = StreamingPredictor(network, batch_size=64)
        np.testing.assert_allclose(proba, local.predict_proba_stream(x), atol=1e-12)
