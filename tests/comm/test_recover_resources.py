"""Resource stability across repeated crash/recover cycles.

Fault-tolerant training may respawn workers many times in one long run.
Each :meth:`ProcessComm.recover` replaces the dead rank's task/result
queues and shared-memory slots — these tests pin down that the *old*
resources are actually released: the driver's file-descriptor count and
the shared-memory slot bookkeeping stay flat over N cycles instead of
growing by a few pipes per respawn.
"""

import os
import threading

import pytest

from repro.comm import ProcessComm, TCPComm, tasks

CYCLES = 3


def _fd_count() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs procfs")
class TestRecoverResources:
    def test_fd_and_slot_counts_stable_over_crash_cycles(self):
        from repro.exceptions import BackendError

        with ProcessComm(2, timeout=5.0) as comm:
            # Warm up: one full crash/recover so lazily-created resources
            # (feeder threads, respawn queues) exist before we baseline.
            with pytest.raises(BackendError):
                comm.run(tasks.crash_rank, [(1,)] * comm.size)
            assert comm.recover()
            comm.run(tasks.echo_rank)

            baseline_fds = _fd_count()
            baseline_slots = len(comm._own_slots)

            for _ in range(CYCLES):
                with pytest.raises(BackendError):
                    comm.run(tasks.crash_rank, [(1,)] * comm.size)
                assert comm.recover()
                results = comm.run(tasks.echo_rank)
                assert [r["rank"] for r in results] == [0, 1]

            assert len(comm._own_slots) == baseline_slots
            # Queue feeder threads create/destroy pipes asynchronously, so
            # allow a little slack — but 4 cycles of leaked queue pairs
            # (>= 4 fds/cycle before the fix) would blow well past it.
            assert _fd_count() <= baseline_fds + 4

    def test_tcp_fd_and_thread_counts_stable_over_crash_cycles(self):
        from repro.exceptions import BackendError

        def hub_threads():
            return sorted(t.name for t in threading.enumerate() if t.name.startswith("tcp-hub"))

        with TCPComm(2, timeout=5.0) as comm:
            with pytest.raises(BackendError):
                comm.run(tasks.crash_rank, [(1,)] * comm.size)
            assert comm.recover()
            comm.run(tasks.echo_rank)

            baseline_fds = _fd_count()
            # Rank 0 is in-process: no loopback socket, no reader for it and
            # no round thread — the listener's accept loop plus one reader
            # (and one socket) per worker is all the hub ever holds.
            assert hub_threads() == ["tcp-hub-accept", "tcp-hub-read1"]

            for _ in range(CYCLES):
                with pytest.raises(BackendError):
                    comm.run(tasks.crash_rank, [(1,)] * comm.size)
                assert comm.recover()
                results = comm.run(tasks.echo_rank)
                assert [r["rank"] for r in results] == [0, 1]

            assert hub_threads() == ["tcp-hub-accept", "tcp-hub-read1"]
            assert _fd_count() <= baseline_fds + 1

    def test_pool_still_healthy_after_cycles(self):
        from repro.exceptions import BackendError

        with ProcessComm(2, timeout=5.0) as comm:
            for _ in range(CYCLES):
                with pytest.raises(BackendError):
                    comm.run(tasks.crash_rank, [(1,)] * comm.size)
                assert comm.recover()
            results = comm.run(tasks.collective_checks)
            expected = float(sum(range(comm.size)))
            assert all(float(r["reduced"][0]) == expected for r in results)
