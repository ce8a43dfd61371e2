"""Resource stability across repeated crash/recover cycles.

Fault-tolerant training may respawn workers many times in one long run.
Each :meth:`TCPComm.recover` replaces the dead rank's process and
connection — these tests pin down that the *old* resources are actually
released: the driver's file-descriptor and hub-thread counts stay flat over
N cycles instead of growing by a socket or a thread per respawn.
"""

import os
import threading

import pytest

from repro.comm import TCPComm
from tests.comm import programs

CYCLES = 3


def _fd_count() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs procfs")
class TestRecoverResources:
    def test_tcp_fd_and_thread_counts_stable_over_crash_cycles(self):
        from repro.exceptions import BackendError

        def hub_threads():
            return sorted(t.name for t in threading.enumerate() if t.name.startswith("tcp-hub"))

        with TCPComm(2, timeout=5.0) as comm:
            with pytest.raises(BackendError):
                comm.run(programs.crash_rank, [(1,)] * comm.size)
            assert comm.recover()
            comm.run(programs.echo_rank)

            baseline_fds = _fd_count()
            # Rank 0 is in-process and reads its workers' sockets in its own
            # thread: no loopback socket and no reader or round thread — the
            # listener's accept loop plus one socket per worker is all the
            # hub ever holds.
            assert hub_threads() == ["tcp-hub-accept"]

            for _ in range(CYCLES):
                with pytest.raises(BackendError):
                    comm.run(programs.crash_rank, [(1,)] * comm.size)
                assert comm.recover()
                results = comm.run(programs.echo_rank)
                assert [r["rank"] for r in results] == [0, 1]

            assert hub_threads() == ["tcp-hub-accept"]
            assert _fd_count() <= baseline_fds + 1

    def test_pool_still_healthy_after_cycles(self):
        from repro.exceptions import BackendError

        with TCPComm(2, timeout=5.0) as comm:
            for _ in range(CYCLES):
                with pytest.raises(BackendError):
                    comm.run(programs.crash_rank, [(1,)] * comm.size)
                assert comm.recover()
            results = comm.run(programs.collective_checks)
            expected = float(sum(range(comm.size)))
            assert all(float(r["reduced"][0]) == expected for r in results)
