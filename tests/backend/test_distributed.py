"""Tests for the comm-backed data-parallel trainer and legacy combine mode.

The transport-level collective semantics live in ``tests/comm``; this module
covers what the *backend* layer builds on top: the driver-side list combine
helpers (used by ``DistributedBackend``) and the SPMD
:class:`~repro.backend.distributed.DistributedTrainer`.
"""

import numpy as np
import pytest

from repro.backend.distributed import DistributedTrainer, split_ranks
from repro.comm import SerialComm, ThreadComm
from repro.core import BCPNNHyperParameters, StructuralPlasticityLayer
from repro.exceptions import BackendError, DataError
from repro.utils.rng import as_rng


class TestDriverSideListMode:
    """The driver-side list collectives ``DistributedBackend`` combines with."""

    def test_allreduce_sum_and_mean(self):
        comm = ThreadComm(3)
        parts = [np.full(4, float(r)) for r in range(3)]
        assert np.allclose(comm.allreduce(parts, op="sum"), 3.0)
        assert np.allclose(comm.allreduce(parts, op="mean"), 1.0)

    def test_allreduce_max_min(self):
        comm = ThreadComm(2)
        parts = [np.array([1.0, 5.0]), np.array([3.0, 2.0])]
        assert np.allclose(comm.allreduce(parts, op="max"), [3.0, 5.0])
        assert np.allclose(comm.allreduce(parts, op="min"), [1.0, 2.0])

    def test_allgather_returns_copies(self):
        comm = ThreadComm(2)
        parts = [np.zeros(2), np.ones(2)]
        gathered = comm.allgather(parts)
        gathered[0][:] = 99
        assert parts[0][0] == 0.0

    def test_spmd_collectives_guarded_outside_run(self):
        # A single SPMD array collective on a size>1 comm would rendezvous
        # with peers that are not running; it must fail fast, not hang.
        comm = ThreadComm(3)
        with pytest.raises(BackendError):
            comm.bcast(np.array([1.0, 2.0]), root=0)
        with pytest.raises(BackendError):
            comm.allreduce(np.ones(4))
        with pytest.raises(BackendError):
            comm.bcast(np.ones(2), root=9)

    def test_contribution_validation(self):
        comm = ThreadComm(2)
        with pytest.raises(BackendError):
            comm.allreduce([np.ones(2)])
        with pytest.raises(BackendError):
            comm.allreduce([np.ones(2), np.ones(3)])
        with pytest.raises(BackendError):
            comm.allreduce([np.ones(2), np.ones(2)], op="median")

    def test_counters(self):
        comm = ThreadComm(2)
        comm.allreduce([np.ones(4), np.ones(4)])
        assert comm.collective_calls["allreduce"] == 1
        assert comm.bytes_communicated > 0

    def test_invalid_size(self):
        with pytest.raises(BackendError):
            ThreadComm(0)


class TestSplitRanks:
    def test_partition(self):
        chunks = split_ranks(10, 3)
        assert sum(hi - lo for lo, hi in chunks) == 10
        assert len(chunks) == 3

    def test_invalid(self):
        with pytest.raises(BackendError):
            split_ranks(10, 0)


def _make_layer(spec, seed=0):
    hyperparams = BCPNNHyperParameters(taupdt=0.05, density=0.5, competition="softmax")
    layer = StructuralPlasticityLayer(2, 6, hyperparams=hyperparams, seed=seed)
    layer.build(spec)
    return layer


class TestDistributedTrainer:
    @pytest.fixture()
    def data(self, small_one_hot_batch):
        # Tile the batch into a larger dataset.
        return np.tile(small_one_hot_batch, (4, 1))

    def test_rank_invariance_of_traces(self, small_input_spec, data):
        layers = {}
        for ranks in (1, 3):
            layer = _make_layer(small_input_spec, seed=7)
            comm = SerialComm() if ranks == 1 else ThreadComm(ranks)
            with comm:
                trainer = DistributedTrainer(comm)
                trainer.train_layer(
                    layer, data, epochs=2, batch_size=64, rng=as_rng(5), shuffle=True
                )
            layers[ranks] = layer
        assert np.allclose(layers[1].traces.p_ij, layers[3].traces.p_ij, atol=1e-10)
        assert np.allclose(layers[1].traces.p_i, layers[3].traces.p_i, atol=1e-10)

    def test_more_ranks_than_batch_rows_is_safe(self, small_input_spec, small_one_hot_batch):
        layer = _make_layer(small_input_spec, seed=1)
        with ThreadComm(128) as comm:
            trainer = DistributedTrainer(comm)
            report = trainer.train_layer(
                layer, small_one_hot_batch, epochs=1, batch_size=16, rng=as_rng(0)
            )
        assert report.global_batches == 4
        assert layer.traces.check_consistency()

    def test_report_contents(self, small_input_spec, data):
        layer = _make_layer(small_input_spec, seed=2)
        comm = ThreadComm(2)
        trainer = DistributedTrainer(comm)
        epochs_seen = []
        with comm:
            report = trainer.train_layer(
                layer, data, epochs=3, batch_size=64, rng=as_rng(1),
                on_epoch_end=lambda epoch, logs: epochs_seen.append(epoch),
            )
        assert report.ranks == 2
        assert report.epochs == 3
        assert report.allreduce_calls == comm.collective_calls["allreduce"]
        assert report.bytes_communicated > 0
        assert epochs_seen == [0, 1, 2]

    def test_one_allreduce_per_batch(self, small_input_spec, data):
        layer = _make_layer(small_input_spec, seed=3)
        comm = ThreadComm(2)
        with comm:
            report = DistributedTrainer(comm).train_layer(
                layer, data, epochs=2, batch_size=64, rng=as_rng(2)
            )
        # The packed sufficient statistics make exactly one allreduce per
        # global batch (the paper's "one reduction per update" property).
        assert comm.collective_calls["allreduce"] == report.global_batches
        assert report.global_batches == 2 * (data.shape[0] // 64)

    def test_competitive_mode_matches_layer_semantics(self, small_input_spec, data):
        layer = _make_layer(small_input_spec, seed=9)
        with SerialComm() as comm:
            DistributedTrainer(comm).train_layer(
                layer, data, epochs=1, batch_size=64, rng=as_rng(3), mode="competitive"
            )
        # train_batch semantics: calibration + batch counting happened.
        assert layer.batches_trained == data.shape[0] // 64
        assert layer.traces.check_consistency()

    def test_worker_replicas_inherit_the_compute_backend(self, small_input_spec, data):
        """Rank-invariance must hold for non-default backends too: the spec
        shipped to worker ranks carries the registry name of rank 0's
        backend, so every shard is computed at the same precision."""
        layers = {}
        for ranks in (1, 3):
            hyperparams = BCPNNHyperParameters(taupdt=0.05, density=0.5, competition="softmax")
            layer = StructuralPlasticityLayer(
                2, 6, hyperparams=hyperparams, seed=7, backend="float32"
            )
            layer.build(small_input_spec)
            comm = SerialComm() if ranks == 1 else ThreadComm(ranks)
            with comm:
                DistributedTrainer(comm).train_layer(
                    layer, data, epochs=1, batch_size=64, rng=as_rng(5)
                )
            layers[ranks] = layer
        assert np.allclose(layers[1].traces.p_ij, layers[3].traces.p_ij, atol=1e-6)

    def test_repeated_calls_consume_the_caller_rng(self, small_input_spec, data):
        """Two train_layer calls sharing one generator must not replay the
        same shuffle stream (the seed draw advances the caller's rng)."""
        rng = as_rng(0)
        traces = []
        for _ in range(2):
            layer = _make_layer(small_input_spec, seed=7)
            with SerialComm() as comm:
                DistributedTrainer(comm).train_layer(
                    layer, data, epochs=1, batch_size=32, rng=rng, shuffle=True
                )
            traces.append(layer.traces.p_ij.copy())
        assert not np.array_equal(traces[0], traces[1])

    def test_stochastic_competition_stays_consistent(self, small_input_spec, data):
        """The default 'sample' competition draws shard-shaped noise; the
        per-epoch replica resync must keep training usable (consistent
        traces, no rendezvous mismatch) even with mask swaps every epoch."""
        hyperparams = BCPNNHyperParameters(
            taupdt=0.05, density=0.5, competition="sample", mask_update_period=1
        )
        layer = StructuralPlasticityLayer(2, 6, hyperparams=hyperparams, seed=3)
        layer.build(small_input_spec)
        with ThreadComm(3) as comm:
            DistributedTrainer(comm).train_layer(
                layer, data, epochs=3, batch_size=64, rng=as_rng(2), mode="competitive"
            )
        assert layer.traces.check_consistency()

    def test_invalid_arguments(self, small_input_spec, data):
        layer = _make_layer(small_input_spec)
        trainer = DistributedTrainer(ThreadComm(2))
        with pytest.raises(DataError):
            trainer.train_layer(layer, data, epochs=-1, batch_size=16, rng=as_rng(0))
        with pytest.raises(DataError):
            trainer.train_layer(layer, data, epochs=1, batch_size=0, rng=as_rng(0))
        with pytest.raises(DataError):
            trainer.train_layer(layer, np.ones(5), epochs=1, batch_size=2, rng=as_rng(0))
        with pytest.raises(DataError):
            trainer.train_layer(layer, data, epochs=1, batch_size=2, rng=as_rng(0), mode="x")

    def test_requires_communicator(self):
        with pytest.raises(BackendError):
            DistributedTrainer("not-a-comm")
