"""Tests for the comm-backed data-parallel trainer.

The transport-level collective semantics live in ``tests/comm``; this module
covers the reduction operators and driver-side guards the trainer relies on
and the SPMD :class:`~repro.backend.distributed.DistributedTrainer`.
"""

import tracemalloc

import numpy as np
import pytest

from repro import kernels
from repro.backend.distributed import DistributedTrainer, split_ranks
from repro.comm import SerialComm, ThreadComm
from repro.core import BCPNNHyperParameters, InputSpec, StructuralPlasticityLayer
from repro.exceptions import BackendError, DataError
from repro.utils.rng import as_rng


def _one_hot(n, f, m, seed):
    """``n`` rows of ``f`` one-hot hypercolumns of ``m`` units."""
    x = np.zeros((n, f * m))
    winners = np.random.default_rng(seed).integers(0, m, size=(n, f))
    for b in range(f):
        x[np.arange(n), b * m + winners[:, b]] = 1.0
    return x


def _reduce_rank_values(comm, values, op):
    return comm.allreduce(np.asarray(values[comm.rank], dtype=np.float64), op=op)


class TestThreadCommReductions:
    """Every reduction operator, reduced in rank order inside ``run``."""

    def test_allreduce_sum_and_mean(self):
        parts = [np.full(4, float(r)) for r in range(3)]
        with ThreadComm(3) as comm:
            for op, expected in (("sum", 3.0), ("mean", 1.0)):
                for out in comm.run(_reduce_rank_values, [(parts, op)] * 3):
                    assert np.allclose(out, expected)

    def test_allreduce_max_min(self):
        parts = [np.array([1.0, 5.0]), np.array([3.0, 2.0])]
        with ThreadComm(2) as comm:
            for op, expected in (("max", [3.0, 5.0]), ("min", [1.0, 2.0])):
                for out in comm.run(_reduce_rank_values, [(parts, op)] * 2):
                    assert np.allclose(out, expected)

    def test_unknown_reduction_rejected(self):
        with pytest.raises(BackendError, match="unknown reduction"):
            SerialComm().allreduce(np.ones(2), op="median")

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

    @pytest.mark.parametrize("n_rows, n_ranks", [(0, 2), (1, 3), (2, 3), (5, 8)])
    def test_fewer_rows_than_ranks(self, n_rows, n_ranks):
        """Each rank trains on a contiguous slice of the global batch in rank
        order; with fewer rows than ranks the trailing ranks get none."""
        chunks = split_ranks(n_rows, n_ranks)
        assert len(chunks) == n_ranks
        assert chunks[0][0] == 0 and chunks[-1][1] == n_rows
        assert all(hi == lo for (_, hi), (lo, _) in zip(chunks, chunks[1:]))
        sizes = [hi - lo for lo, hi in chunks]
        assert sizes == sorted(sizes, reverse=True) and max(sizes) <= 1
        assert sizes[-1] == 0


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
                on_epoch_end=lambda record: epochs_seen.append(record["epoch"] - 1),
            )
        assert report.ranks == 2
        assert report.epochs == 3
        assert report.allreduce_calls == comm.collective_calls["allreduce"]
        assert report.bytes_communicated > 0
        assert epochs_seen == [0, 1, 2]

    @pytest.mark.parametrize("weight_refresh_tol", [0.0, 0.02])
    def test_report_books_this_calls_traffic(self, small_input_spec, data, weight_refresh_tol):
        """Two identical calls on one communicator report equal traffic:
        the report counts the call, not the communicator's lifetime."""
        reports = []
        with SerialComm() as comm:
            for _ in range(2):
                reports.append(
                    DistributedTrainer(comm).train_layer(
                        _make_layer(small_input_spec, seed=4), data, epochs=2,
                        batch_size=64, rng=as_rng(6), weight_refresh_tol=weight_refresh_tol,
                    )
                )
            assert comm.collective_calls["allreduce"] == 2 * reports[0].allreduce_calls
        first, second = reports
        assert second.allreduce_calls == first.allreduce_calls
        assert second.bytes_communicated == first.bytes_communicated > 0

    def test_execution_options_are_restored(self, small_input_spec, data):
        """The program runs the layer's engine at the call's tolerance and
        hands the layer back with the options it came with."""
        layer = _make_layer(small_input_spec, seed=5)
        layer.configure_execution(n_buffers=2, weight_refresh_tol=0.0)
        with SerialComm() as comm:
            DistributedTrainer(comm).train_layer(
                layer, data, epochs=1, batch_size=64, rng=as_rng(1), weight_refresh_tol=0.05
            )
        assert layer._engine_options == {"n_buffers": 2, "weight_refresh_tol": 0.0}

    def test_epoch_boundaries_publish_fresh_weights(self, small_input_spec, data):
        """Stale-weights caching defers refreshes inside an epoch only: every
        boundary record sees weights and bias that match the traces."""
        hyperparams = BCPNNHyperParameters(taupdt=0.05, density=1.0)
        layer = StructuralPlasticityLayer(2, 6, hyperparams=hyperparams, seed=8)
        layer.build(small_input_spec)
        fresh = []

        def check(record):
            t = layer.traces
            weights, bias = kernels.traces_to_weights(
                t.p_i, t.p_j, t.p_ij, layer.hyperparams.trace_floor
            )
            fresh.append(
                np.array_equal(layer.weights, weights) and np.array_equal(layer.bias, bias)
            )

        with SerialComm() as comm:
            DistributedTrainer(comm).train_layer(
                layer, data, epochs=3, batch_size=32, rng=as_rng(4),
                weight_refresh_tol=10.0, on_epoch_end=check,
            )
        assert fresh == [True, True, True]

    def test_one_allreduce_per_batch(self, small_input_spec, data):
        layer = _make_layer(small_input_spec, seed=3)
        comm = ThreadComm(2)
        with comm:
            report = DistributedTrainer(comm).train_layer(
                layer, data, epochs=2, batch_size=64, rng=as_rng(2)
            )
        # The packed sufficient statistics make exactly one allreduce per
        # global batch (the paper's "one reduction per update" property),
        # plus one for the first batch's global calibration mean.
        assert comm.collective_calls["allreduce"] == report.global_batches + 1
        assert report.global_batches == 2 * (data.shape[0] // 64)

    def test_competitive_mode_matches_layer_semantics(self, small_input_spec, data):
        layer = _make_layer(small_input_spec, seed=9)
        with SerialComm() as comm:
            DistributedTrainer(comm).train_layer(
                layer, data, epochs=1, batch_size=64, rng=as_rng(3)
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
                layer, data, epochs=3, batch_size=64, rng=as_rng(2)
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

    def test_requires_communicator(self):
        with pytest.raises(BackendError):
            DistributedTrainer("not-a-comm")


# At a tolerance large enough for the drift gate to skip refreshes at an epoch
# boundary, the program's engine enters already refreshed by the replica sync
# (the serial loop's fresh engine forces one more refresh after its first
# batch) and the per-epoch sync refreshes the weights (the serial loop's
# ``end_epoch`` does not), so the two forward on different weights.
_BOUNDARY_REFRESH = pytest.mark.xfail(
    strict=True,
    reason="the program's epoch-boundary weight refreshes differ from the serial loop's",
)
TOLERANCES = [0.0, 1e-4, pytest.param(0.02, marks=_BOUNDARY_REFRESH)]


class TestFrozenMaskMatchesSerial:
    """With the mask frozen for the whole run (``mask_update_period`` beyond
    the epoch count) the SPMD program trains what the serial loop trains,
    silent joint-trace entries included, with or without stale-weights
    caching: the message-passing version computes what the sequential
    algorithm computes."""

    EPOCHS, BATCH = 3, 32

    def _layer(self, competition):
        hyperparams = BCPNNHyperParameters(
            taupdt=0.05, density=0.3, competition=competition, mask_update_period=100
        )
        layer = StructuralPlasticityLayer(2, 6, hyperparams=hyperparams, seed=4)
        layer.build(InputSpec.uniform(10, 4))
        return layer

    def _serial(self, competition, x, tol):
        layer = self._layer(competition)
        layer.configure_execution(weight_refresh_tol=tol)
        for epoch in range(self.EPOCHS):
            for start in range(0, x.shape[0], self.BATCH):
                layer.train_batch(x[start : start + self.BATCH])
            layer.end_epoch(epoch)
        return layer

    def _spmd(self, competition, x, comm, tol):
        layer = self._layer(competition)
        with comm:
            DistributedTrainer(comm).train_layer(
                layer, x, epochs=self.EPOCHS, batch_size=self.BATCH, rng=as_rng(0),
                shuffle=False, weight_refresh_tol=tol,
            )
        return layer

    @pytest.mark.parametrize("tol", TOLERANCES)
    @pytest.mark.parametrize("competition", ["sample", "softmax"])
    def test_one_rank_equals_the_serial_loop(self, competition, tol):
        x = _one_hot(128, 10, 4, seed=3)
        serial = self._serial(competition, x, tol)
        spmd = self._spmd(competition, x, SerialComm(), tol)
        assert 0.0 < serial.plasticity.mask.mean() < 1.0
        for name in ("p_i", "p_j", "p_ij"):
            assert np.array_equal(getattr(spmd.traces, name), getattr(serial.traces, name))

    @pytest.mark.parametrize("tol", TOLERANCES)
    def test_two_softmax_ranks_match_the_serial_loop(self, tol):
        x = _one_hot(128, 10, 4, seed=3)
        serial = self._serial("softmax", x, tol)
        spmd = self._spmd("softmax", x, ThreadComm(2), tol)
        for name in ("p_i", "p_j", "p_ij"):
            assert np.allclose(
                getattr(spmd.traces, name), getattr(serial.traces, name), atol=1e-9
            )


def _allreduce_transients(layer, x, batch, epochs, weight_refresh_tol):
    """Peak ``tracemalloc`` growth over each interval between two allreduces
    of a one-rank program run."""
    transients = []
    held = []
    with SerialComm() as comm:

        def probed(collective):
            def call(array, op="sum"):
                current, peak = tracemalloc.get_traced_memory()
                if held:
                    transients.append(peak - held[-1])
                tracemalloc.reset_peak()
                held.append(current)
                return collective(array, op=op)

            return call

        comm.allreduce = probed(comm.allreduce)
        tracemalloc.start()
        try:
            DistributedTrainer(comm).train_layer(
                layer, x, epochs=epochs, batch_size=batch, rng=as_rng(3),
                weight_refresh_tol=weight_refresh_tol,
            )
        finally:
            tracemalloc.stop()
    return transients


def _steady(transients, per_epoch):
    """Interval i runs from batch i's reduction to batch i + 1's: skip the
    first epoch (workspace warm-up) and the intervals that span an epoch
    boundary (plasticity, the replica sync)."""
    steady = [
        peak for i, peak in enumerate(transients)
        if i >= per_epoch and (i + 1) % per_epoch != 0
    ]
    assert steady
    return steady


class TestProgramAllocations:
    """Each rank forwards through its layer's engine workspace, so a batch
    allocates little ``(B, H)``-sized between two allreduces: the entropy
    monitor's one float64 buffer (1.00 x B·H·8, the serial route computes
    it the same way) plus less than half a ``(B, H)`` of anything else, the
    rest being trace-sized or ``(B, n_hcu)``."""

    @pytest.mark.parametrize("weight_refresh_tol", [0.0, 0.02])
    @pytest.mark.parametrize("density", [0.5, 1.0])
    @pytest.mark.parametrize("competition", ["softmax", "sample"])
    def test_batch_by_hidden_allocations_between_allreduces_are_bounded(
        self, competition, density, weight_refresh_tol
    ):
        batch, n_hidden, per_epoch = 256, 100, 4
        x = _one_hot(per_epoch * batch, 4, 5, seed=1)  # few input units: 20
        hyperparams = BCPNNHyperParameters(
            taupdt=0.05, density=density, competition=competition,
            mask_update_period=10_000,
        )
        layer = StructuralPlasticityLayer(4, 25, hyperparams=hyperparams, seed=2)
        layer.build(InputSpec.uniform(4, 5))
        transients = _allreduce_transients(layer, x, batch, 3, weight_refresh_tol)
        # The statistics payload adds the first batch's calibration allreduce.
        calibration = 1 if competition == "softmax" else 0
        transients = transients[calibration:]
        assert len(transients) == 3 * per_epoch - 1
        assert max(_steady(transients, per_epoch)) < 2.5 * batch * n_hidden * 8

    @pytest.mark.parametrize("weight_refresh_tol", [0.0, 0.02])
    @pytest.mark.parametrize("density", [0.3, 1.0])
    def test_winner_path_allocates_nothing_trace_sized(self, density, weight_refresh_tol):
        """``sample`` on {0,1} x at the narrow shape (280 inputs, 1 x 150
        hidden, 32-row batches): every rank counts only the pairs a batch
        touches and scatters them into ``p_ij``, so no interval between two
        allreduces allocates as much as one ``(n_input, n_hidden)`` float64
        matrix (a dense count matrix would be exactly that)."""
        batch, per_epoch = 32, 4
        x = _one_hot(per_epoch * batch, 28, 10, seed=1)
        hyperparams = BCPNNHyperParameters(
            taupdt=0.05, density=density, competition="sample",
            mask_update_period=10_000,
        )
        layer = StructuralPlasticityLayer(1, 150, hyperparams=hyperparams, seed=2)
        layer.build(InputSpec.uniform(28, 10))
        transients = _allreduce_transients(layer, x, batch, 3, weight_refresh_tol)
        assert len(transients) == 3 * per_epoch - 1
        trace_bytes = layer.traces.p_ij.nbytes
        assert trace_bytes == 280 * 150 * 8
        assert max(_steady(transients, per_epoch)) < trace_bytes
