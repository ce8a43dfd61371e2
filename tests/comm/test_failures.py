"""Crash/timeout behaviour: worker failures surface as errors, never hangs.

These tests deliberately break their own communicators, so every test
constructs a fresh pool with a short rendezvous timeout.
"""

import time

import pytest

from repro.comm import TCPComm, ThreadComm
from repro.exceptions import BackendError
from tests.comm import programs


def _boom(comm):
    if comm.rank == 1:
        raise ValueError("rank 1 exploded")
    comm.barrier()
    return comm.rank


class TestProcessFailures:
    def test_worker_crash_surfaces_backend_error(self):
        """A hard-killed worker (os._exit) must not hang the driver."""
        comm = TCPComm(2, timeout=4.0)
        try:
            started = time.monotonic()
            with pytest.raises(BackendError):
                comm.run(programs.crash_rank, [(1,), (1,)])
            assert time.monotonic() - started < 60.0
        finally:
            comm.close()

    def test_worker_timeout_surfaces_backend_error(self):
        """A wedged worker breaks the rendezvous within the comm timeout."""
        comm = TCPComm(2, timeout=2.0)
        try:
            started = time.monotonic()
            with pytest.raises(BackendError):
                comm.run(programs.stall_rank, [(1, 120.0), (1, 120.0)])
            assert time.monotonic() - started < 60.0
        finally:
            comm.close()

    def test_worker_exception_is_relayed_and_pool_survives(self):
        """A Python-level worker exception reports rank + traceback text, and
        the pool stays usable for the next program."""
        comm = TCPComm(2, timeout=10.0)
        try:
            started = time.monotonic()
            with pytest.raises(BackendError, match="rank 1"):
                comm.run(_boom)
            assert time.monotonic() - started < 5.0  # an event, not the 10 s timeout
            results = comm.run(programs.echo_rank)
            assert [r["rank"] for r in results] == [0, 1]
        finally:
            comm.close()

    def test_closed_comm_rejects_run(self):
        comm = TCPComm(2, timeout=10.0)
        comm.close()
        with pytest.raises(BackendError):
            comm.run(programs.echo_rank)


class TestThreadFailures:
    def test_rank_exception_propagates(self):
        with ThreadComm(2) as comm:
            with pytest.raises(ValueError, match="rank 1 exploded"):
                comm.run(_boom)
            # barrier was reset; the comm stays usable
            results = comm.run(programs.echo_rank)
            assert [r["rank"] for r in results] == [0, 1]

    def test_driver_rank_exception_propagates(self):
        def fail_on_root(comm):
            if comm.rank == 0:
                raise RuntimeError("root failed")
            comm.barrier()

        with ThreadComm(2, timeout=10.0) as comm:
            with pytest.raises(RuntimeError, match="root failed"):
                comm.run(fail_on_root)


class TestExternalWorker:
    """``python -m repro.comm.tcp --connect HOST:PORT``, the multi-host worker."""

    def test_an_unreachable_rendezvous_exits_1_naming_the_address(self, capsys):
        import socket

        from repro.comm import tcp

        with socket.socket() as probe:  # a port nothing listens on
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        assert tcp.main(["--connect", f"127.0.0.1:{port}", "--timeout", "1"]) == 1
        out = capsys.readouterr().out
        assert f"could not reach the tcp rendezvous at 127.0.0.1:{port}" in out

    def test_a_malformed_address_is_a_usage_error(self):
        from repro.comm import tcp

        with pytest.raises(SystemExit) as exc:
            tcp.main(["--connect", "no-port-here"])
        assert exc.value.code == 2
