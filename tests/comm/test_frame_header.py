"""The tcp fixed-header frame: what it carries and what it refuses.

Collective frames describe their payload in one ``struct`` header (op,
reduce, dtype code, shape, ...).  Every dtype and shape kind collectives
carry must round-trip exactly as on the thread transport; a header that
lies about its payload must end the task with a ``BackendError`` on every
rank, within ``timeout``, and leave the connection usable.  Payloads above
``chunk_bytes`` travel as chunks: tiny caps make multi-chunk (and ragged
final chunk) round-trips run even for small payloads.
"""

import time

import numpy as np
import pytest

from repro.comm import TCPComm, ThreadComm
from repro.exceptions import BackendError
from tests.comm import programs

TIMEOUT = 20.0


@pytest.fixture(scope="module")
def tcp_comm():
    comm = TCPComm(2, timeout=TIMEOUT)
    yield comm
    comm.close()


def test_every_dtype_and_shape_matches_thread(tcp_comm):
    with ThreadComm(2) as reference:
        expected = reference.run(programs.frame_matrix)
    got = tcp_comm.run(programs.frame_matrix)
    assert len(got[0]) == len(programs.FRAME_DTYPES) * len(programs.FRAME_SHAPES)
    for rank_got, rank_expected in zip(got, expected):
        for key, want in rank_expected.items():
            for a, b in zip([rank_got[key]["reduced"]] + rank_got[key]["broadcasts"],
                            [want["reduced"]] + want["broadcasts"]):
                assert a.dtype == b.dtype and a.shape == b.shape, key
                assert np.array_equal(a, b), key
                assert a.flags.c_contiguous and a.flags.writeable


@pytest.mark.parametrize("what", ["op", "dtype", "shape"])
def test_lying_header_fails_every_rank_within_timeout(tcp_comm, what):
    started = time.monotonic()
    with pytest.raises(BackendError, match="worker rank 1 failed") as failure:
        tcp_comm.run(programs.malformed_frame, [(what,)] * 2)
    assert time.monotonic() - started < TIMEOUT
    # Rank 0 raised in its barrier; rank 1's traceback is the abort it got.
    assert "BackendError: tcp collective aborted: rank 1 sent a malformed frame" in str(
        failure.value
    )
    # The payload was read whole: the stream is in step, the next task runs.
    assert [r["rank"] for r in tcp_comm.run(programs.echo_rank)] == [0, 1]


def test_worker_killed_between_collectives_fails_the_next_one():
    """Nobody reads rank 1's socket while rank 0 computes; its EOF is
    found the moment rank 0 enters its next collective."""
    pause = 0.5
    with TCPComm(2, timeout=30.0) as comm:
        started = time.monotonic()
        with pytest.raises(BackendError, match="lost their connection"):
            comm.run(programs.die_between_collectives, [(pause,)] * 2)
        assert time.monotonic() - started < pause + 1.0
        assert comm.recover()
        assert [r["rank"] for r in comm.run(programs.echo_rank)] == [0, 1]


class TestChunkedTCPCollectives:
    @pytest.mark.parametrize("chunk_bytes", [8, 64])
    def test_chunked_round_trips(self, chunk_bytes):
        """Ragged final chunks, zero-length and 1-element payloads all
        round-trip at chunk caps down to one float64 per chunk."""
        with TCPComm(2, timeout=60.0, chunk_bytes=chunk_bytes) as comm:
            results = comm.run(programs.chunked_allreduce_checks, [(23,)] * comm.size)
            for r in results:
                assert np.array_equal(r["reduced"], r["expected"])
                assert r["matrix_max"] == float(comm.size)
                assert r["empty_size"] == 0
                assert r["single"] == float(sum(range(comm.size)))

    def test_chunking_books_one_call_per_collective(self):
        with TCPComm(2, timeout=60.0, chunk_bytes=64) as comm:
            before = dict(comm.collective_calls)
            comm.run(programs.chunked_allreduce_checks, [(23,)] * comm.size)
            # 4 allreduces per rank-program, one booking each however many
            # chunks their frames took.
            assert comm.collective_calls["allreduce"] == before["allreduce"] + 4
