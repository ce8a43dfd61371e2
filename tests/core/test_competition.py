"""The competition kernel and the one-hot statistics path (ISSUE 19).

``kernels.compete_into`` must be *bit for bit* the composition it replaced
(``tests/core/competition_oracle.py``) — outputs and the generator state
after every call, because the count and order of the draws is the
reproducibility contract — and the index path of ``batch_outer_product``
must be bit for bit the GEMM over the dense one-hot matrices, at every batch
size (its sparse joint mean scattered into a zero matrix).
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.backend import distributed
from repro.backend.distributed import DistributedTrainer
from repro.comm import SerialComm
from repro.core import BCPNNHyperParameters, InputSpec, StructuralPlasticityLayer
from repro.engine import LayerWorkspace
from repro.exceptions import DataError
from repro.utils.arrays import blockwise_softmax
from tests.core import competition_oracle as oracle

UNIFORM = [5, 5, 5]
RAGGED = [3, 6, 2, 4]


def _activations(n_rows, sizes, seed):
    rng = np.random.default_rng(seed)
    return blockwise_softmax(3.0 * rng.normal(size=(n_rows, sum(sizes))), sizes)


def _one_hot_input(n_rows, sizes, seed):
    rng = np.random.default_rng(seed)
    x = np.zeros((n_rows, sum(sizes)))
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    x[np.arange(n_rows)[:, None], starts + rng.integers(0, sizes, size=(n_rows, len(sizes)))] = 1.0
    return x


def _dense(activity):
    return activity.dense() if isinstance(activity, kernels.OneHotActivity) else activity


class TestOracle:
    """The reference itself (moved here from tests/utils/test_arrays.py)."""

    def test_blockwise_sample_is_one_hot_per_block(self):
        rng = np.random.default_rng(0)
        probs = blockwise_softmax(rng.normal(size=(10, 6)), [3, 3])
        sample = oracle.blockwise_sample(probs, [3, 3], rng)
        assert np.allclose(sample[:, :3].sum(axis=1), 1.0)
        assert np.allclose(sample[:, 3:].sum(axis=1), 1.0)
        assert set(np.unique(sample)) <= {0.0, 1.0}

    def test_blockwise_sample_respects_degenerate_distribution(self):
        rng = np.random.default_rng(0)
        probs = np.tile(np.array([[1.0, 0.0, 0.0]]), (20, 1))
        sample = oracle.blockwise_sample(probs, [3], rng)
        assert np.all(sample[:, 0] == 1.0)


class TestCompeteIntoIsTheOracle:
    @pytest.mark.parametrize("sizes", [UNIFORM, RAGGED], ids=["uniform", "ragged"])
    @pytest.mark.parametrize("n_rows", [1, 112, 256])
    @pytest.mark.parametrize("noise", [0.0, 0.1])
    @pytest.mark.parametrize("bias_delta", [0.0, -1.0])
    @pytest.mark.parametrize("mode", ["softmax", "noisy_softmax", "sample"])
    @pytest.mark.parametrize("with_scratch", [False, True], ids=["alloc", "scratch"])
    def test_three_calls_on_one_generator(
        self, with_scratch, mode, bias_delta, noise, n_rows, sizes
    ):
        width = sum(sizes)
        bias = np.log(np.random.default_rng(1).dirichlet(np.ones(width)))
        scratch = LayerWorkspace(4, width, 256) if with_scratch else None
        expected_rng = np.random.default_rng(99)
        actual_rng = np.random.default_rng(99)
        for call in range(3):
            activations = _activations(n_rows, sizes, seed=call)
            pristine = activations.copy()
            expected = oracle.training_activity(
                activations, sizes, mode, noise, bias, bias_delta, expected_rng
            )
            actual = kernels.compete_into(
                activations, sizes, mode, noise, bias, bias_delta, actual_rng, scratch=scratch
            )
            assert isinstance(actual, kernels.OneHotActivity) == (mode == "sample")
            assert np.array_equal(_dense(actual), expected)
            assert np.array_equal(activations, pristine), "activations were written"
            assert actual_rng.bit_generator.state == expected_rng.bit_generator.state
        if with_scratch and mode != "sample":
            assert np.shares_memory(actual, scratch.support)

    @pytest.mark.parametrize("sizes", [UNIFORM, RAGGED], ids=["uniform", "ragged"])
    def test_degenerate_rows_pick_what_the_oracle_picks(self, sizes):
        width = sum(sizes)
        activations = _activations(6, sizes, seed=3)
        activations[0] = 0.0
        activations[0, np.cumsum(sizes) - 1] = 1.0  # all mass on each last column
        activations[1, : sizes[0]] = 0.0  # a block summing to 0
        activations[2] = 0.0  # every block summing to 0
        for noise in (0.0, 0.1):
            expected_rng = np.random.default_rng(4)
            actual_rng = np.random.default_rng(4)
            expected = oracle.training_activity(
                activations, sizes, "sample", noise, None, 0.0, expected_rng
            )
            actual = kernels.compete_into(
                activations, sizes, "sample", noise, None, 0.0, actual_rng
            )
            assert np.array_equal(actual.dense(), expected)
            if noise == 0.0:
                assert np.array_equal(actual.winners[0], np.cumsum(sizes) - 1)
            assert actual.shape == (6, width)

    def test_no_bias_means_no_reweighting(self):
        activations = _activations(8, UNIFORM, seed=5)
        plain = kernels.compete_into(
            activations, UNIFORM, "softmax", 0.0, None, -1.0, np.random.default_rng(0)
        )
        assert np.array_equal(
            plain,
            oracle.training_activity(
                activations, UNIFORM, "softmax", 0.0, None, -1.0, np.random.default_rng(0)
            ),
        )

    def test_invalid_arguments_rejected(self):
        rng = np.random.default_rng(0)
        activations = _activations(4, UNIFORM, seed=0)
        with pytest.raises(DataError):
            kernels.compete_into(activations, UNIFORM, "argmax", 0.1, None, 0.0, rng)
        with pytest.raises(DataError):
            kernels.compete_into(activations, [5, 5], "sample", 0.1, None, 0.0, rng)
        with pytest.raises(DataError):
            kernels.compete_into(activations[0], UNIFORM, "sample", 0.1, None, 0.0, rng)
        with pytest.raises(DataError):  # more rows than the workspace holds
            kernels.compete_into(
                activations, UNIFORM, "sample", 0.1, None, 0.0, rng,
                scratch=LayerWorkspace(4, sum(UNIFORM), 2),
            )

    def test_noise_buffer_is_lazy_and_counted(self):
        workspace = LayerWorkspace(4, sum(UNIFORM), 16)
        before = workspace.nbytes()
        activations = _activations(16, UNIFORM, seed=0)
        rng = np.random.default_rng(0)
        for mode, noise in (("softmax", 0.1), ("sample", 0.0)):
            kernels.compete_into(activations, UNIFORM, mode, noise, None, 0.0, rng, workspace)
        assert workspace.nbytes() == before
        kernels.compete_into(activations, UNIFORM, "sample", 0.1, None, 0.0, rng, workspace)
        assert workspace.nbytes() == before + activations.nbytes


class TestOneHotActivity:
    def test_dense_round_trip_and_out_buffer(self):
        activity = kernels.OneHotActivity(np.array([[1, 3], [0, 4]]), 5)
        expected = np.array([[0, 1, 0, 1, 0], [1, 0, 0, 0, 1]], dtype=float)
        assert np.array_equal(activity.dense(), expected)
        out = np.full((2, 5), 7.0)
        assert activity.dense(out=out) is out
        assert np.array_equal(out, expected)
        with pytest.raises(DataError):
            activity.dense(out=np.empty((3, 5)))

    def test_invalid_winners_rejected(self):
        with pytest.raises(DataError):
            kernels.OneHotActivity(np.array([[0, 5]]), 5)
        with pytest.raises(DataError):
            kernels.OneHotActivity(np.array([[-1, 2]]), 5)
        with pytest.raises(DataError):
            kernels.OneHotActivity(np.array([0, 2]), 5)
        with pytest.raises(DataError):
            kernels.OneHotActivity(np.array([[0.0, 2.0]]), 5)


@st.composite
def _binary_batches(draw):
    n_rows = draw(st.integers(1, 70))  # mostly not a power of two
    n_input = draw(st.integers(1, 12))
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    x = (rng.random((n_rows, n_input)) < draw(st.floats(0.0, 1.0))).astype(np.float64)
    if draw(st.booleans()):
        x[rng.integers(n_rows)] = 0.0  # an all-zero row
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    winners = starts + rng.integers(0, sizes, size=(n_rows, len(sizes)))
    return x, kernels.OneHotActivity(winners, sum(sizes))


def _scattered(joint, shape):
    """The dense joint mean a sparse ``(flat_index, values)`` pair stands for."""
    flat, values = joint
    assert np.all(np.diff(flat) > 0) and np.all(values > 0)
    dense = np.zeros(shape)
    dense.reshape(-1)[flat] = values
    return dense


class TestOneHotStatisticsAreExact:
    @settings(max_examples=150, deadline=None)
    @given(_binary_batches())
    def test_index_path_equals_gemm_path_bit_for_bit(self, batch):
        x, activity = batch
        dense = activity.dense()
        expected = oracle.batch_statistics(x, dense)
        mean_x, mean_a, joint = kernels.batch_outer_product(x, activity)
        # The index path engages for {0,1} inputs at every batch size: the
        # joint mean comes back as the sparse pair ema_update scatters.
        assert isinstance(joint, tuple)
        assert np.array_equal(mean_x, expected[0])
        assert np.array_equal(mean_a, expected[1])
        assert np.array_equal(_scattered(joint, expected[2].shape), expected[2])
        # The workspace form: mean_x / mean_a land in the buffers handed in.
        out_x, out_a = np.empty(x.shape[1]), np.empty(dense.shape[1])
        out_outer = np.empty(expected[2].shape)
        returned = kernels.batch_outer_product(x, activity, out_x, out_a, out_outer)
        assert returned[0] is out_x and returned[1] is out_a
        assert np.array_equal(out_x, expected[0]) and np.array_equal(out_a, expected[1])
        assert np.array_equal(_scattered(returned[2], expected[2].shape), expected[2])

    @pytest.mark.parametrize("n_rows", [112, 256])
    def test_higgs_shaped_batches(self, n_rows):
        sizes = [10] * 28
        x = _one_hot_input(n_rows, sizes, seed=n_rows)
        activity = kernels.compete_into(
            _activations(n_rows, [30] * 4, seed=1), [30] * 4, "sample", 0.1, None, 0.0,
            np.random.default_rng(2),
        )
        expected = oracle.batch_statistics(x, activity.dense())
        actual = kernels.batch_outer_product(x, activity)
        assert np.array_equal(actual[0], expected[0])
        assert np.array_equal(actual[1], expected[1])
        assert np.array_equal(_scattered(actual[2], expected[2].shape), expected[2])

    @pytest.mark.parametrize("spoiler", [0.5, 2.0, -1.0, np.nan])
    def test_real_valued_input_falls_back_to_the_gemm(self, spoiler):
        x = _one_hot_input(40, [4, 4, 4], seed=0)
        x[17, 5] = spoiler
        winners = np.random.default_rng(1).integers(0, 6, size=(40, 1))
        activity = kernels.OneHotActivity(winners, 6)
        returned = kernels.batch_outer_product(x, activity)
        assert isinstance(returned[2], np.ndarray)  # the dense GEMM, not a pair
        for expected, actual in zip(oracle.batch_statistics(x, activity.dense()), returned):
            assert np.array_equal(actual, expected, equal_nan=True)

    def test_empty_and_mismatched_batches_raise(self):
        activity = kernels.OneHotActivity(np.empty((0, 2), dtype=np.intp), 6)
        with pytest.raises(DataError):
            kernels.batch_outer_product(np.empty((0, 4)), activity)
        with pytest.raises(DataError):
            kernels.batch_outer_product(
                np.ones((3, 4)), kernels.OneHotActivity(np.zeros((2, 1), dtype=np.intp), 6)
            )


def _layer(competition="sample", density=0.5, backend=None, seed=7, mask_update_period=1):
    hyperparams = BCPNNHyperParameters(
        taupdt=0.05, density=density, competition=competition,
        mask_update_period=mask_update_period,
    )
    layer = StructuralPlasticityLayer(2, 50, hyperparams=hyperparams, backend=backend, seed=seed)
    return layer.build(InputSpec([10] * 4))


def _dense_oracle_activity(layer):
    """The layer's competition as the allocating dense composition."""
    hp = layer.hyperparams

    def activity(activations, scratch=None):
        return oracle.training_activity(
            activations, layer.hidden_sizes, hp.competition, hp.competition_noise,
            layer.bias, hp.competition_bias_gain - hp.bias_gain, layer._rng,
        )

    return activity


class TestTrainingRoutes:
    @pytest.mark.parametrize("backend", ["numpy", "float32", "float16", "posit16"])
    @pytest.mark.parametrize("competition", ["sample", "noisy_softmax", "softmax"])
    def test_train_batch_equals_training_on_the_dense_oracle(self, competition, backend):
        """Engine route, per backend: indices (numpy) and the base-class
        densify (everyone else) train exactly like the dense one-hot matrix."""
        x = _one_hot_input(96, [10] * 4, seed=0)
        subject = _layer(competition, backend=backend)
        reference = _layer(competition, backend=backend)
        reference._training_activity = _dense_oracle_activity(reference)
        for start in range(0, 96, 32):
            subject.train_batch(x[start : start + 32])
            reference.train_batch(x[start : start + 32])
        assert np.array_equal(subject.traces.p_i, reference.traces.p_i)
        assert np.array_equal(subject.traces.p_j, reference.traces.p_j)
        assert np.array_equal(subject.traces.p_ij, reference.traces.p_ij)
        assert subject._rng.bit_generator.state == reference._rng.bit_generator.state

    def test_real_valued_input_trains_like_the_dense_oracle(self):
        x = np.random.default_rng(0).random((64, 40))
        subject, reference = _layer(), _layer()
        reference._training_activity = _dense_oracle_activity(reference)
        for start in range(0, 64, 32):
            subject.train_batch(x[start : start + 32])
            reference.train_batch(x[start : start + 32])
        assert np.array_equal(subject.traces.p_ij, reference.traces.p_ij)

    def test_engine_route_allocates_no_batch_by_hidden_array(self):
        """Steady state: no (B, H)-sized array is allocated per batch."""
        batch, width = 128, 100
        x = _one_hot_input(4 * batch, [10] * 4, seed=1)
        layer = _layer()
        for start in range(0, 2 * batch, batch):  # warm-up: workspace + noise buffer
            layer.train_batch(x[start : start + batch])
        tracemalloc.start()
        try:
            for start in range(2 * batch, 4 * batch, batch):
                tracemalloc.reset_peak()
                held, _ = tracemalloc.get_traced_memory()
                layer.train_batch(x[start : start + batch])
                _, peak = tracemalloc.get_traced_memory()
                assert peak - held < batch * width * 8
        finally:
            tracemalloc.stop()

    def _spmd(self, x, dense_oracle=False):
        layer = _layer(mask_update_period=2)
        if dense_oracle:
            layer._training_activity = _dense_oracle_activity(layer)
        with SerialComm() as comm:
            report = DistributedTrainer(comm).train_layer(
                layer, x, epochs=3, batch_size=48, rng=np.random.default_rng(3)
            )
        return layer, report

    def test_spmd_index_statistics_equal_the_gemm_statistics(self, monkeypatch):
        """Counts from the reduced winners == the GEMMs of the trace-shaped
        payload over the dense one-hot matrix."""
        x = _one_hot_input(192, [10] * 4, seed=2)
        subject, report = self._spmd(x)
        assert report.extra["epoch_logs"][-1]["winner_payload"] == 1.0
        with monkeypatch.context() as patch:
            patch.setattr(distributed, "_winner_payload", lambda *args: False)
            reference, _ = self._spmd(x, dense_oracle=True)
        assert np.array_equal(subject.traces.p_i, reference.traces.p_i)
        assert np.array_equal(subject.traces.p_j, reference.traces.p_j)
        assert np.array_equal(subject.traces.p_ij, reference.traces.p_ij)
        assert np.array_equal(subject.plasticity.mask, reference.plasticity.mask)
