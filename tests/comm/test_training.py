"""Rank-invariance of data-parallel training across every transport.

The acceptance property of the subsystem: training over real OS processes
(and threads) reproduces the serial traces bit-for-bit up to floating-point
summation order — exactly the paper's claim for the MPI backend.
"""

import numpy as np
import pytest

from repro.backend.distributed import DistributedTrainer
from repro.comm import ProcessComm, SerialComm, TCPComm, ThreadComm
from repro.core import (
    BCPNNClassifier,
    BCPNNHyperParameters,
    InputSpec,
    Network,
    StructuralPlasticityLayer,
    TrainingSchedule,
)
from repro.experiments.distributed_experiment import run_distributed_equivalence
from repro.utils.rng import as_rng
from tests.core.test_input_dtype import assert_same_fit, fit, one_hot

ATOL = 1e-9


def _one_hot(n, sizes, seed):
    rng = np.random.default_rng(seed)
    x = np.zeros((n, sum(sizes)))
    offset = 0
    for size in sizes:
        winners = rng.integers(0, size, size=n)
        x[np.arange(n), offset + winners] = 1.0
        offset += size
    return x


def _train(comm, x, mode, seed=7):
    hyperparams = BCPNNHyperParameters(taupdt=0.05, density=0.5, competition="softmax")
    layer = StructuralPlasticityLayer(2, 6, hyperparams=hyperparams, seed=seed)
    layer.build(InputSpec([4, 4, 4]))
    DistributedTrainer(comm).train_layer(
        layer, x, epochs=2, batch_size=64, rng=as_rng(5), shuffle=True, mode=mode
    )
    return layer


class TestTrainerInvariance:
    @pytest.fixture(scope="class")
    def data(self):
        return _one_hot(256, [4, 4, 4], seed=0)

    @pytest.fixture(scope="class")
    def reference(self, data):
        with SerialComm() as comm:
            return {mode: _train(comm, data, mode) for mode in ("rate", "competitive")}

    @pytest.mark.parametrize("mode", ["rate", "competitive"])
    def test_thread_matches_serial(self, data, reference, mode):
        with ThreadComm(3) as comm:
            layer = _train(comm, data, mode)
        ref = reference[mode]
        assert np.allclose(layer.traces.p_ij, ref.traces.p_ij, atol=ATOL)
        assert np.allclose(layer.traces.p_i, ref.traces.p_i, atol=ATOL)
        assert np.array_equal(layer.plasticity.mask, ref.plasticity.mask)

    @pytest.mark.parametrize("mode", ["rate", "competitive"])
    def test_process_matches_serial(self, data, reference, mode, process_pool):
        layer = _train(process_pool, data, mode)
        ref = reference[mode]
        assert np.allclose(layer.traces.p_ij, ref.traces.p_ij, atol=ATOL)
        assert np.allclose(layer.traces.p_i, ref.traces.p_i, atol=ATOL)
        assert np.array_equal(layer.plasticity.mask, ref.plasticity.mask)


@pytest.fixture(scope="module")
def process_pool():
    comm = ProcessComm(2, timeout=120.0)
    yield comm
    comm.close()


class TestNetworkFitComm:
    @pytest.fixture(scope="class")
    def dataset(self):
        x = _one_hot(320, [4, 4, 4], seed=3)
        y = (x[:, 0] + x[:, 4] > 1).astype(int)
        return x, y

    def _fit(self, comm, dataset):
        x, y = dataset
        hyperparams = BCPNNHyperParameters(taupdt=0.05, density=0.6, competition="softmax")
        network = Network(seed=11, name="fit-comm")
        network.add(StructuralPlasticityLayer(2, 5, hyperparams=hyperparams, seed=4))
        network.add(BCPNNClassifier(n_classes=2))
        schedule = TrainingSchedule(hidden_epochs=2, classifier_epochs=2, batch_size=64)
        network.fit(x, y, input_spec=InputSpec([4, 4, 4]), schedule=schedule, comm=comm)
        return network

    def test_fit_is_rank_invariant_across_transports(self, dataset, process_pool):
        x, _ = dataset
        with SerialComm() as comm:
            serial = self._fit(comm, dataset)
        with ThreadComm(3) as comm:
            threaded = self._fit(comm, dataset)
        processed = self._fit(process_pool, dataset)
        for other in (threaded, processed):
            assert np.allclose(
                serial.hidden_layers[0].traces.p_ij,
                other.hidden_layers[0].traces.p_ij,
                atol=ATOL,
            )
            assert np.array_equal(serial.predict(x), other.predict(x))

    def _fit_pipelined(self, comm, dataset, tol):
        x, y = dataset
        hyperparams = BCPNNHyperParameters(taupdt=0.05, density=0.6, competition="softmax")
        network = Network(seed=11, name="fit-comm-pipelined")
        network.add(StructuralPlasticityLayer(2, 5, hyperparams=hyperparams, seed=4))
        network.add(BCPNNClassifier(n_classes=2))
        schedule = TrainingSchedule(
            hidden_epochs=2,
            classifier_epochs=2,
            batch_size=64,
            pipeline=True,
            weight_refresh_tol=tol,
        )
        network.fit(x, y, input_spec=InputSpec([4, 4, 4]), schedule=schedule, comm=comm)
        return network

    @pytest.mark.parametrize("tol", [0.0, 0.02])
    def test_pipelined_fit_is_rank_invariant_across_transports(
        self, dataset, process_pool, tol
    ):
        """ISSUE 4 acceptance: pipelining (and the rank-invariant stale-weights
        refresh decisions) must not break transport invariance."""
        x, _ = dataset
        with SerialComm() as comm:
            serial = self._fit_pipelined(comm, dataset, tol)
        with ThreadComm(3) as comm:
            threaded = self._fit_pipelined(comm, dataset, tol)
        processed = self._fit_pipelined(process_pool, dataset, tol)
        for other in (threaded, processed):
            assert np.allclose(
                serial.hidden_layers[0].traces.p_ij,
                other.hidden_layers[0].traces.p_ij,
                atol=ATOL,
            )
            assert np.array_equal(
                serial.hidden_layers[0].plasticity.mask,
                other.hidden_layers[0].plasticity.mask,
            )
            assert np.array_equal(serial.predict(x), other.predict(x))

    def test_pipelined_comm_fit_matches_non_pipelined(self, dataset):
        """The pipelined shard gather is a pure scheduling change."""
        with SerialComm() as comm:
            plain = self._fit(comm, dataset)
        with SerialComm() as comm:
            piped = self._fit_pipelined(comm, dataset, tol=0.0)
        np.testing.assert_array_equal(
            plain.hidden_layers[0].traces.p_ij, piped.hidden_layers[0].traces.p_ij
        )

    def test_fit_records_history_and_trains_head(self, dataset):
        with ThreadComm(2) as comm:
            network = self._fit(comm, dataset)
        hidden = [r for r in network.history.records if r.phase == "hidden"]
        assert len(hidden) == 2
        assert all("mean_activation_entropy" in r.metrics for r in hidden)
        assert network.is_fitted
        x, y = dataset
        assert network.evaluate(x, y)["accuracy"] > 0.5


    def test_serial_comm_fit_records_forward_activation_entropy(self, encoded_higgs):
        """The comm route logs the entropy of the *forward* activations, as the
        plain loop does — not of the competition output, which in the default
        ``sample`` mode is one-hot (entropy identically 0.0 every epoch)."""
        network = Network(seed=3, name="fit-comm-entropy")
        hyperparams = BCPNNHyperParameters(taupdt=0.02, density=0.4)
        network.add(StructuralPlasticityLayer(1, 30, hyperparams=hyperparams, seed=4))
        network.add(BCPNNClassifier(n_classes=2))
        schedule = TrainingSchedule(hidden_epochs=4, classifier_epochs=1, batch_size=64)
        with SerialComm() as comm:
            network.fit(
                encoded_higgs["x_train"][:1600],
                encoded_higgs["y_train"][:1600],
                input_spec=encoded_higgs["spec"],
                schedule=schedule,
                comm=comm,
            )
        entropies = network.history.metric("mean_activation_entropy", phase="hidden")
        assert len(entropies) == 4
        assert all(entropy > 0.0 for entropy in entropies)
        assert all(later < earlier for earlier, later in zip(entropies, entropies[1:]))


@pytest.fixture(scope="module")
def tcp_pool():
    comm = TCPComm(2, timeout=60.0)
    yield comm
    comm.close()


class TestStoredInputDtype:
    """The dataset crosses the transport in its stored dtype and changes nothing.

    Worker ranks receive the ``uint8`` one-hot matrix (N x n_in bytes, not
    x 8) and widen their ``(B/R, n_in)`` shard per batch; the fit must equal
    the fit on the float64 copy bit for bit.  Serial, pipelined and
    ``thread:2`` routes: ``tests/core/test_input_dtype.py``.
    """

    @pytest.mark.parametrize("density", [0.3, 1.0])
    @pytest.mark.parametrize("transport", ["process", "tcp"])
    def test_uint8_and_float64_fits_are_bitwise_equal(
        self, transport, density, process_pool, tcp_pool
    ):
        comm = process_pool if transport == "process" else tcp_pool
        x = one_hot(320)
        start = comm.bytes_communicated
        compact = fit(x, density, comm=comm)
        compact_bytes = comm.bytes_communicated - start
        wide = fit(x.astype(np.float64), density, comm=comm)
        wide_bytes = comm.bytes_communicated - start - compact_bytes
        assert_same_fit(compact, wide)
        # Same collectives either way except the one broadcast of x.
        assert wide_bytes - compact_bytes == 7 * x.size


class TestExperimentAcrossTransports:
    @pytest.fixture(scope="class")
    def higgs(self):
        from repro.experiments.higgs_pipeline import prepare_higgs_data

        return prepare_higgs_data(n_events=600, seed=0)

    @pytest.mark.parametrize("transport", ["thread", "process"])
    def test_distributed_equivalence(self, higgs, transport):
        result = run_distributed_equivalence(
            rank_counts=(1, 2),
            n_minicolumns=10,
            epochs=1,
            batch_size=128,
            data=higgs,
            seed=0,
            transport=transport,
        )
        assert result["all_equivalent"], result["table"]
        assert result["rows"][1]["transport"] == transport
