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
            # ragged allgather: rank r contributed r+1 elements, no padding
            assert r["gathered_sizes"] == [k + 1 for k in range(comm.size)]
            assert np.allclose(r["broadcast"], [0.0, 1.0, 2.0])
            assert r["int_ranks"] == list(range(comm.size))
        stitched = np.concatenate([r["shard"] for r in results], axis=0)
        assert np.allclose(stitched, np.arange(30).reshape(10, 3))

    def test_counters_track_collectives(self, comm):
        before = dict(comm.collective_calls)
        comm.run(tasks.collective_checks)
        assert comm.collective_calls["allreduce"] == before["allreduce"] + 2
        assert comm.collective_calls["allgather"] == before["allgather"] + 2
        assert comm.collective_calls["bcast"] == before["bcast"] + 1
        assert comm.collective_calls["scatter"] == before["scatter"] + 1
        assert comm.bytes_communicated > 0


class TestScatterEdgeCases:
    def test_fewer_rows_than_ranks(self, comm):
        """``n_samples < n_ranks`` gives trailing ranks empty shards."""
        n_rows = max(comm.size - 1, 1)
        results = comm.run(tasks.collective_checks, [(n_rows, 2)] * comm.size)
        sizes = [r["shard"].shape[0] for r in results]
        assert sum(sizes) == n_rows
        if comm.size > 1:
            assert sizes[-1] == 0
        stitched = np.concatenate([r["shard"] for r in results], axis=0)
        assert np.allclose(stitched, np.arange(n_rows * 2).reshape(n_rows, 2))


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

    def test_mpi_gated(self):
        from repro.comm import HAVE_MPI, MPIComm

        if not HAVE_MPI:
            with pytest.raises(BackendError):
                MPIComm()

    def test_interface_is_abstract(self):
        with pytest.raises(TypeError):
            Communicator()


class TestDriverSideGuards:
    def test_spmd_collective_outside_run_fails_fast(self):
        with ThreadComm(2) as comm:
            with pytest.raises(BackendError):
                comm.allreduce(np.ones(3))

    def test_legacy_list_mode_works_outside_run(self):
        with ThreadComm(2) as comm:
            out = comm.allreduce([np.ones(3), np.ones(3)])
            assert np.allclose(out, 2.0)

    def test_nested_run_rejected(self):
        with ThreadComm(2) as comm:
            with pytest.raises(BackendError):
                comm.run(_nested_run)


def _nested_run(comm):
    if comm.rank == 1:
        comm.run(tasks.echo_rank)
    comm.barrier()
    return comm.rank
