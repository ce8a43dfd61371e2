"""Comm-sharded streaming inference: real ranks, one allgather per call."""

import numpy as np
import pytest

from repro.comm import SerialComm, TCPComm, ThreadComm
from repro.serving import StreamingPredictor
from repro.exceptions import DataError


@pytest.fixture(scope="module")
def tcp_pool():
    comm = TCPComm(2, timeout=120.0)
    yield comm
    comm.close()


@pytest.fixture()
def inputs(encoded_higgs):
    return encoded_higgs["x_test"][:333]


class TestCommSharding:
    def test_thread_sharded_matches_reference(self, trained_network, inputs):
        expected = trained_network.predict(inputs)
        expected_proba = trained_network.predict_proba(inputs)
        with ThreadComm(3) as comm:
            predictor = StreamingPredictor(trained_network, batch_size=64, comm=comm)
            assert np.array_equal(predictor.predict_stream(inputs), expected)
            assert np.allclose(
                predictor.predict_proba_stream(inputs), expected_proba, atol=1e-12
            )

    def test_tcp_sharded_matches_reference(self, trained_network, inputs, tcp_pool):
        expected = trained_network.predict(inputs)
        predictor = StreamingPredictor(trained_network, batch_size=64, comm=tcp_pool)
        assert np.array_equal(predictor.predict_stream(inputs), expected)

    @pytest.mark.parametrize("transport", ["thread", "tcp"])
    def test_shards_keep_the_stored_dtype(
        self, trained_network, inputs, tcp_pool, monkeypatch, transport
    ):
        """A ``uint8`` one-hot matrix is scattered one byte per unit; each
        rank widens per tile, so the labels equal those of float64 input."""
        assert inputs.dtype == np.uint8
        seen = []
        stream_local = StreamingPredictor._stream_local

        def recording(predictor, source, proba):
            seen.append(source.dtype)
            return stream_local(predictor, source, proba)

        monkeypatch.setattr(StreamingPredictor, "_stream_local", recording)
        expected = trained_network.predict(inputs.astype(np.float64))
        with ThreadComm(2) as thread_comm:
            comm = thread_comm if transport == "thread" else tcp_pool
            predictor = StreamingPredictor(trained_network, batch_size=64, comm=comm)
            assert np.array_equal(predictor.predict_stream(inputs), expected)
        # Thread ranks and the inline tcp rank 0 run in this process.
        assert seen and all(dtype == np.uint8 for dtype in seen)

    def test_unwidenable_rows_rejected_before_the_scatter(self, trained_network, inputs):
        with ThreadComm(2) as comm:
            predictor = StreamingPredictor(trained_network, batch_size=64, comm=comm)
            with pytest.raises(DataError, match="complex"):
                predictor.predict_stream(inputs.astype(np.complex128))
            assert comm.collective_calls["scatter"] == 0

    def test_single_gather_per_call(self, trained_network, inputs):
        with ThreadComm(2) as comm:
            predictor = StreamingPredictor(trained_network, batch_size=32, comm=comm)
            before = comm.collective_calls["allgather"]
            predictor.predict_stream(inputs)
            # one gather regardless of the ~11 batches each rank streams
            assert comm.collective_calls["allgather"] == before + 1
            before = comm.collective_calls["allgather"]
            predictor.predict_proba_stream(inputs)
            assert comm.collective_calls["allgather"] == before + 1

    def test_fewer_rows_than_ranks(self, trained_network, inputs):
        with ThreadComm(8) as comm:
            predictor = StreamingPredictor(trained_network, batch_size=64, comm=comm)
            small = inputs[:3]
            assert np.array_equal(
                predictor.predict_stream(small), trained_network.predict(small)
            )

    def test_serial_comm_equals_no_comm(self, trained_network, inputs):
        with SerialComm() as comm:
            sharded = StreamingPredictor(trained_network, batch_size=64, comm=comm)
            local = StreamingPredictor(trained_network, batch_size=64)
            assert np.array_equal(
                sharded.predict_stream(inputs), local.predict_stream(inputs)
            )

    def test_comm_spec_string_resolves(self, trained_network, inputs):
        """The redesigned API accepts transport spec strings directly."""
        expected = trained_network.predict(inputs)
        with StreamingPredictor(trained_network, batch_size=64, comm="thread:3") as predictor:
            assert np.array_equal(predictor.predict_stream(inputs), expected)

    def test_comm_must_be_a_communicator_or_spec(self, trained_network):
        from repro.exceptions import BackendError

        with pytest.raises(BackendError):
            StreamingPredictor(trained_network, comm="warp-drive:2")
        with pytest.raises((BackendError, DataError)):
            StreamingPredictor(trained_network, comm=3.14)
