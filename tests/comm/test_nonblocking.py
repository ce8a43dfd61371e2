"""Nonblocking collectives and chunked tcp reductions.

The ``iallreduce`` semantics are exercised through real SPMD programs on
every transport; the chunked tcp cases construct their own communicators
with deliberately tiny ``chunk_bytes`` so multi-chunk (and ragged final
chunk) round-trips run even for small payloads.
"""

import numpy as np
import pytest

from repro.comm import (
    CompletedRequest,
    SerialComm,
    TCPComm,
    ThreadComm,
    tasks,
)


@pytest.fixture(scope="module")
def tcp_comm():
    comm = TCPComm(2, timeout=60.0)
    yield comm
    comm.close()


@pytest.fixture(params=["serial", "thread", "tcp"])
def comm(request, tcp_comm):
    if request.param == "serial":
        with SerialComm() as c:
            yield c
    elif request.param == "thread":
        with ThreadComm(3) as c:
            yield c
    else:
        yield tcp_comm


class TestIallreduceSemantics:
    def test_iallreduce_matches_blocking_on_every_transport(self, comm):
        results = comm.run(tasks.iallreduce_checks, [(5, 4)] * comm.size)
        # Each round r: every rank contributes (rank+1)*(r+1); sum over
        # ranks is (r+1) * size*(size+1)/2.
        base = comm.size * (comm.size + 1) / 2.0
        for r in results:
            for round_no, round_result in enumerate(r["rounds"]):
                assert round_result["value"] == base * (round_no + 1)
                assert round_result["same"], "wait() must be idempotent"
                assert round_result["done"], "test() must report completion"
            assert r["maxed"] == float(comm.size - 1)

    def test_iallreduce_counts_separately(self, comm):
        before_i = comm.collective_calls["iallreduce"]
        before_a = comm.collective_calls["allreduce"]
        comm.run(tasks.iallreduce_checks, [(5, 3)] * comm.size)
        # 3 rounds + 1 max reduction, none of them booked as blocking calls.
        assert comm.collective_calls["iallreduce"] == before_i + 4
        assert comm.collective_calls["allreduce"] == before_a

    def test_iallreduce_takes_array_likes(self):
        # A list is this rank's contribution, as for every other collective.
        with SerialComm() as comm:
            assert np.array_equal(comm.iallreduce([1.0, 2.0], op="sum").wait(), [1.0, 2.0])

    def test_serial_request_is_completed_eagerly(self):
        with SerialComm() as comm:
            request = comm.iallreduce(np.arange(3.0), op="sum")
            assert isinstance(request, CompletedRequest)
            assert request.test()
            assert np.array_equal(request.wait(), np.arange(3.0))

    def test_one_outstanding_request_contract(self, comm):
        results = comm.run(tasks.iallreduce_outstanding_error, [(4,)] * comm.size)
        expected = float(sum(range(comm.size)))
        for r in results:
            assert r["value"] == expected
            if comm.transport == "tcp":
                # The tcp rounds support exactly one in-flight reduction
                # per rank; a second issue must fail fast.
                assert r["rejected"]
            else:
                assert not r["rejected"]


class TestChunkedTCPCollectives:
    @pytest.mark.parametrize("chunk_bytes", [8, 64])
    def test_chunked_round_trips(self, chunk_bytes):
        """Ragged final chunks, zero-length and 1-element payloads all
        round-trip at chunk caps down to one float64 per chunk."""
        with TCPComm(2, timeout=60.0, chunk_bytes=chunk_bytes) as comm:
            results = comm.run(tasks.chunked_allreduce_checks, [(23,)] * comm.size)
            for r in results:
                assert np.array_equal(r["reduced"], r["expected"])
                assert r["matrix_max"] == float(comm.size)
                assert r["empty_size"] == 0
                assert r["single"] == float(sum(range(comm.size)))
                assert r["nonblocking_matches"]

    def test_chunking_books_one_call_per_collective(self):
        with TCPComm(2, timeout=60.0, chunk_bytes=64) as comm:
            before = dict(comm.collective_calls)
            comm.run(tasks.chunked_allreduce_checks, [(23,)] * comm.size)
            # 4 blocking allreduces and 1 iallreduce per rank-program, one
            # booking each however many chunks their frames took.
            assert comm.collective_calls["allreduce"] == before["allreduce"] + 4
            assert comm.collective_calls["iallreduce"] == before["iallreduce"] + 1
