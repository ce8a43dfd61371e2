"""Collective semantics of every transport, checked via real SPMD programs.

One long-lived :class:`~repro.comm.TCPComm` is shared module-wide (worker
start-up costs ~a second per worker under the spawn start method); tests
that need a broken pool construct their own in ``test_failures.py``.
"""

import numpy as np
import pytest

from repro.comm import (
    Communicator,
    SerialComm,
    TCPComm,
    ThreadComm,
    get_communicator,
    list_transports,
    tasks,
)
from repro.exceptions import BackendError


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


class TestCollectives:
    def test_identity(self, comm):
        results = comm.run(tasks.echo_rank)
        assert [r["rank"] for r in results] == list(range(comm.size))
        assert all(r["size"] == comm.size for r in results)
        if comm.transport == "tcp":
            # Real OS processes: worker ranks run in different PIDs.
            assert len({r["pid"] for r in results}) == comm.size

    def test_collective_semantics(self, comm):
        results = comm.run(tasks.collective_checks)
        expected_sum = float(sum(range(comm.size)))
        for r in results:
            assert np.allclose(r["reduced"], expected_sum)
            assert np.allclose(r["maxed"], comm.size - 1)
            assert np.allclose(r["broadcast"], [0.0, 1.0, 2.0])
            assert r["int_ranks"] == list(range(comm.size))

    def test_counters_track_collectives(self, comm):
        before = dict(comm.collective_calls)
        comm.run(tasks.collective_checks)
        assert comm.collective_calls["allreduce"] == before["allreduce"] + 2
        assert comm.collective_calls["bcast"] == before["bcast"] + 2
        assert comm.collective_calls["barrier"] == before["barrier"] + 1
        assert comm.bytes_communicated > 0


class TestFactory:
    def test_transport_names(self):
        names = list_transports()
        assert {"serial", "thread", "tcp"} <= set(names)

    def test_resolution(self):
        assert isinstance(get_communicator(None), SerialComm)
        assert isinstance(get_communicator("serial"), SerialComm)
        thread = get_communicator("thread", ranks=4)
        assert isinstance(thread, ThreadComm) and thread.size == 4
        assert get_communicator(thread) is thread

    def test_invalid_specs(self):
        with pytest.raises(BackendError):
            get_communicator("serial", ranks=2)
        with pytest.raises(BackendError):
            get_communicator("warp-drive")
        with pytest.raises(BackendError):
            get_communicator(3.14)
        existing = ThreadComm(2)
        with pytest.raises(BackendError):
            get_communicator(existing, ranks=5)

    def test_interface_is_abstract(self):
        with pytest.raises(TypeError):
            Communicator()


class TestDriverSideGuards:
    def test_spmd_collective_outside_run_fails_fast(self):
        with ThreadComm(2) as comm:
            with pytest.raises(BackendError):
                comm.allreduce(np.ones(3))

    def test_nested_run_rejected(self):
        with ThreadComm(2) as comm:
            with pytest.raises(BackendError):
                comm.run(_nested_run)


def _nested_run(comm):
    if comm.rank == 1:
        comm.run(tasks.echo_rank)
    comm.barrier()
    return comm.rank
