"""Transport-conformance suite: one contract, every transport.

Every :class:`~repro.comm.Communicator` must present *identical* collective
semantics, survive chunked payloads at tiny chunk caps, and turn a crashed rank into a
:class:`~repro.exceptions.BackendError` instead of a hang.  The suite runs
the same SPMD programs (:mod:`repro.comm.tasks`) over serial, thread and
tcp, so a new transport passes or fails the whole matrix at once.

The module-scope tcp fixture is shared across tests (hub start-up costs
~a second per worker under the spawn start method); the crash tests
construct their own throwaway communicators.
"""

import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro import faults
from repro.comm import (
    SerialComm,
    TCPComm,
    ThreadComm,
    get_communicator,
    list_transports,
    parse_transport_spec,
    resolve_comm,
    tasks,
    transport_capabilities,
)
from repro.comm import tcp as tcp_module
from repro.exceptions import BackendError
from tests.comm import programs

TRANSPORTS = ["serial", "thread", "tcp"]
FAULT_TOLERANT = [name for name, caps in transport_capabilities().items() if caps["fault_tolerant"]]


@pytest.fixture(scope="module")
def tcp_comm():
    comm = TCPComm(2, timeout=60.0)
    yield comm
    comm.close()


@pytest.fixture(params=TRANSPORTS)
def comm(request, tcp_comm):
    if request.param == "serial":
        with SerialComm() as c:
            yield c
    elif request.param == "thread":
        with ThreadComm(2) as c:
            yield c
    else:
        yield tcp_comm


class TestCollectiveConformance:
    def test_identity(self, comm):
        results = comm.run(tasks.echo_rank)
        assert [r["rank"] for r in results] == list(range(comm.size))
        assert all(r["size"] == comm.size for r in results)

    def test_collective_semantics_identical(self, comm):
        """allreduce/bcast/barrier agree on every transport."""
        results = comm.run(tasks.collective_checks)
        expected_sum = float(sum(range(comm.size)))
        for r in results:
            assert np.allclose(r["reduced"], expected_sum)
            assert np.allclose(r["maxed"], comm.size - 1)
            assert np.allclose(r["broadcast"], [0.0, 1.0, 2.0])
            assert r["int_ranks"] == list(range(comm.size))

    def test_dtype_and_shape_fidelity(self, comm):
        """0-d, empty, strided, Fortran-order, bool and integer arrays come
        back from ``allreduce`` and every root's ``bcast`` exactly as sent."""
        base = np.arange(24, dtype=np.float64).reshape(4, 6)
        sent = {
            "float32": lambda r: (base + r).astype(np.float32),
            "int64": lambda r: (base + r).astype(np.int64),
            "bool": lambda r: (base + r) % 2 == 0,
            "zero_d": lambda r: np.asarray(r + 0.5),
            "empty": lambda r: np.empty((0, 3)),
            "strided": lambda r: (base + r)[:, ::2],
            "fortran": lambda r: base + r,
        }
        for got in comm.run(programs.dtype_shape_checks):
            for name, make in sent.items():
                total = sum(make(r).astype(np.float64) for r in range(comm.size))
                assert got[name]["reduced"].dtype == np.float64
                assert np.array_equal(got[name]["reduced"], total)
                for root, part in enumerate(got[name]["broadcasts"]):
                    want = make(root)
                    assert part.dtype == want.dtype and part.shape == want.shape
                    assert np.array_equal(part, want)
                    assert part.flags.writeable

    def test_results_are_caller_owned(self, comm):
        """Call k's result survives call k+1; inputs are never aliased.

        Data-parallel training divides the reduced statistics in place, so
        every transport must hand back memory nobody else reads.
        """
        for r in comm.run(programs.ownership_checks):
            assert all(r.values()), r

    def test_array_likes_are_contributions(self, comm):
        for r in comm.run(programs.array_like_checks):
            assert np.array_equal(r["list"], [float(sum(range(comm.size))), float(comm.size)])
            assert np.array_equal(r["scalar"], float(comm.size - 1))
            assert np.array_equal(r["bcast"], [1.0, 2.0])

    def test_reused_buffer_reduces_each_round_exactly(self, comm):
        """A training loop refills one buffer per batch: each round reduces
        what the buffer held at call time."""
        rank_sum = float(sum(range(1, comm.size + 1)))
        for r in comm.run(programs.reused_buffer_rounds):
            assert r["values"] == [rank_sum * (k + 1) for k in range(4)]
            assert all(r["flat"])


class TestChunking:
    """Payloads far above the per-message cap still reduce exactly."""

    def test_tcp_small_chunk_bytes(self):
        with TCPComm(2, timeout=60.0, chunk_bytes=256) as comm:
            self._check(comm)

    @staticmethod
    def _check(comm):
        results = comm.run(tasks.chunked_allreduce_checks, [(201,)] * comm.size)
        for r in results:
            assert np.array_equal(r["reduced"], r["expected"])
            assert r["matrix_max"] == float(comm.size)
            assert r["empty_size"] == 0
            assert r["single"] == float(sum(range(comm.size)))


class TestCrashSemantics:
    """A dead rank surfaces as BackendError on the survivors — never a hang."""

    @pytest.mark.parametrize("name", FAULT_TOLERANT)
    def test_crashed_rank_is_an_error_within_a_second(self, name):
        """Detection is an event (EOF, a dead process), not the 30 s timeout."""
        with get_communicator(name, ranks=2, timeout=30.0) as comm:
            started = time.monotonic()
            with pytest.raises(BackendError):
                comm.run(tasks.crash_rank, [(1,)] * comm.size)
            assert time.monotonic() - started < 1.0

    def test_worker_that_exits_before_joining_fails_the_constructor(self, monkeypatch):
        """The driver watches the workers it spawned instead of waiting out the deadline."""
        monkeypatch.setattr(tcp_module, "_tcp_worker_main", programs.exit_before_joining)
        started = time.monotonic()
        with pytest.raises(BackendError, match="rank 1 exited with code 3"):
            TCPComm(2, timeout=30.0)
        assert time.monotonic() - started < 5.0  # spawn start-up included; deadline 60 s

    def test_worker_killed_before_joining_names_the_signal(self, monkeypatch):
        monkeypatch.setattr(tcp_module, "_tcp_worker_main", programs.killed_before_joining)
        with pytest.raises(BackendError, match=f"rank 1 exited with code -{int(signal.SIGKILL)}"):
            TCPComm(2, timeout=30.0)

    def test_failed_constructor_reaps_the_workers_that_did_join(self, monkeypatch):
        monkeypatch.setattr(tcp_module, "_tcp_worker_main", programs.rank1_exits_before_joining)
        fixture_workers = set(multiprocessing.active_children())  # module-scope comms
        # Holding the traceback keeps the half-built comm alive, so its
        # __del__ cannot do the cleanup the constructor owes.
        with pytest.raises(BackendError, match="rank 1 exited with code 3") as _failure:
            TCPComm(3, timeout=30.0)
        assert set(multiprocessing.active_children()) <= fixture_workers

    def test_respawned_worker_that_exits_before_joining_fails_recover(self, monkeypatch):
        with TCPComm(2, timeout=30.0) as comm:
            with pytest.raises(BackendError):
                comm.run(tasks.crash_rank, [(1,)] * comm.size)
            monkeypatch.setattr(tcp_module, "_tcp_worker_main", programs.exit_before_joining)
            started = time.monotonic()
            with pytest.raises(BackendError, match="rank 1 exited with code 3"):
                comm.recover()
            assert time.monotonic() - started < 5.0  # spawn start-up included; deadline 60 s

    def test_tcp_crash_raises_and_recovers(self):
        with TCPComm(2, timeout=30.0) as comm:
            with pytest.raises(BackendError):
                comm.run(tasks.crash_rank, [(1,)] * comm.size)
            assert comm.recover()
            results = comm.run(tasks.echo_rank)
            assert [r["rank"] for r in results] == [0, 1]

    def test_tcp_crash_mid_chunked_payload(self):
        with TCPComm(2, timeout=30.0, chunk_bytes=256) as comm:
            with pytest.raises(BackendError):
                comm.run(tasks.crash_rank_chunked, [(1, 512)] * comm.size)


@pytest.fixture(scope="module")
def tcp3_comm():
    comm = TCPComm(3, timeout=60.0, chunk_bytes=256)
    yield comm
    comm.close()


class TestRawFrames:
    """The tcp wire path: raw-buffer frames, in-process rank 0, N > 2 ranks.

    Everything runs at 3 ranks with 256-byte chunks, so every frame is
    multi-chunk and every round has a worker-to-worker relay.
    """

    def test_every_collective_at_three_ranks(self, tcp3_comm):
        results = tcp3_comm.run(tasks.collective_checks, [(40,)] * 3)
        for r in results:
            assert np.array_equal(r["reduced"], np.full(40, 3.0))
            assert np.array_equal(r["maxed"], np.full(40, 2.0))
            assert np.array_equal(r["broadcast"], np.arange(40.0))
            assert r["int_ranks"] == [0, 1, 2]
        TestChunking._check(tcp3_comm)
        for r in tcp3_comm.run(programs.reused_buffer_rounds):
            assert r["values"] == [6.0, 12.0, 18.0, 24.0]
            assert all(r["flat"])

    def test_dtype_and_shape_fidelity(self, tcp3_comm):
        """Dtypes, shapes and values survive the wire; same answers as thread."""
        results = tcp3_comm.run(programs.dtype_shape_checks)
        with ThreadComm(3) as reference:
            expected = reference.run(programs.dtype_shape_checks)
        base = np.arange(24, dtype=np.float64).reshape(4, 6)
        sent = {
            "float32": lambda r: (base + r).astype(np.float32),
            "int64": lambda r: (base + r).astype(np.int64),
            "bool": lambda r: (base + r) % 2 == 0,
            "zero_d": lambda r: np.asarray(r + 0.5),
            "empty": lambda r: np.empty((0, 3)),
            "strided": lambda r: (base + r)[:, ::2],
            "fortran": lambda r: base + r,
        }
        for rank, (got, want) in enumerate(zip(results, expected)):
            for name, make in sent.items():
                entry = got[name]
                assert entry["reduced"].dtype == np.float64
                total = sum(make(r).astype(np.float64) for r in range(3))
                assert np.array_equal(entry["reduced"], total)
                for root, part in enumerate(entry["broadcasts"]):
                    self._same(part, make(root))
                for key, value in entry.items():
                    for a, b in zip(np.atleast_1d(value), np.atleast_1d(want[name][key])):
                        self._same(np.asarray(a), np.asarray(b))

    @staticmethod
    def _same(got, want):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        assert got.flags.c_contiguous and got.flags.writeable

    def test_results_are_caller_owned_multichunk(self, tcp3_comm):
        for r in tcp3_comm.run(programs.ownership_checks):
            assert all(r.values()), r

    @pytest.mark.parametrize("what", ["shape", "dtype", "reduce", "op"])
    def test_mismatched_posts_raise_on_every_rank(self, what):
        with TCPComm(3, timeout=10.0) as comm:
            results = comm.run(programs.mismatched_post, [(what,)] * 3)
            assert [r["raised"] for r in results] == [True] * 3
            assert max(r["seconds"] for r in results) < 10.0
            # The failed round poisoned only its own task.
            assert [r["rank"] for r in comm.run(tasks.echo_rank)] == [0, 1, 2]

    def test_external_workers_join_over_the_wire(self):
        """``spawn=0``: workers started by hand claim ranks, compute, and a
        surplus one is turned away."""
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        box = {}
        driver = threading.Thread(
            target=lambda: box.update(
                comm=TCPComm(3, port=port, timeout=60.0, chunk_bytes=512, spawn_workers=False)
            )
        )
        driver.start()
        for _ in range(200):  # until the rendezvous listens
            try:
                socket.create_connection(("127.0.0.1", port), timeout=1.0).close()
                break
            except OSError:
                time.sleep(0.05)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        # A RuntimeWarning (runpy finding repro.comm.tcp already imported by
        # its package) would mean the worker runs a second copy of the module.
        join = [sys.executable, "-W", "error::RuntimeWarning", "-m", "repro.comm.tcp"]
        join += ["--connect", f"127.0.0.1:{port}"]
        workers = [
            subprocess.Popen(join + ["--rank", "2", "--timeout", "60"], env=env),
            subprocess.Popen(join + ["--timeout", "60", "--chunk-bytes", "64"], env=env),
        ]
        try:
            driver.join(60.0)
            comm = box["comm"]
            surplus = subprocess.run(join, env=env, capture_output=True, text=True, timeout=60.0)
            assert surplus.returncode == 1 and "rejected" in surplus.stdout
            results = comm.run(tasks.collective_checks)
            assert [r["rank"] for r in results] == [0, 1, 2]
            assert all(np.array_equal(r["reduced"], np.full(3, 3.0)) for r in results)
            comm.close()
            assert [w.wait(30.0) for w in workers] == [0, 0]
        finally:
            if "comm" in box:
                box["comm"].close()
            for worker in workers:
                worker.kill()

    def test_complex_payloads_cross_the_wire(self, tcp3_comm):
        """Frames carry any fixed-size dtype's raw memory, complex included."""
        for broadcasts in tcp3_comm.run(_complex_round_trip):
            assert [part.dtype for part in broadcasts] == [np.dtype(np.complex128)] * 3
            assert np.array_equal(np.stack(broadcasts), _complex_rows(3))

    def test_object_arrays_are_rejected(self, tcp_comm):
        with pytest.raises(BackendError, match="object arrays"):
            tcp_comm.run(_allreduce_objects)


def _allreduce_objects(comm):
    return comm.allreduce(np.array([{"rank": comm.rank}], dtype=object))


def _complex_rows(size):
    return np.arange(size * 5).reshape(size, 5) * (1.0 - 2.0j)


def _complex_round_trip(comm):
    mine = _complex_rows(comm.size)[comm.rank]
    return [comm.bcast(mine if comm.rank == root else None, root=root) for root in range(comm.size)]


class TestTimeouts:
    """Every tcp wait is bounded by ``timeout`` — reads, rank 0, hub sends."""

    def test_rank0_waiting_on_a_killed_worker(self):
        with TCPComm(2, timeout=10.0) as comm:
            started = time.monotonic()
            with pytest.raises(BackendError):
                comm.run(tasks.crash_rank_chunked, [(1, 4096)] * 2)
            assert time.monotonic() - started < 10.0

    def test_rank0_waiting_on_a_silent_worker(self):
        """Alive, connected, never posts: rank 0's in-process wait times out."""
        with TCPComm(2, timeout=2.0) as comm:
            started = time.monotonic()
            with pytest.raises(BackendError):
                comm.run(tasks.stall_rank, [(1, 4.0)] * 2)
            assert time.monotonic() - started < 2.0 + 5.0 + 2.0  # + result collection

    def test_stopped_worker_cannot_wedge_hub_sends(self):
        """SIGSTOP mid-run, reply larger than the socket buffers.

        The hub's reply send used to block forever holding that rank's send
        lock, and the abort broadcast then deadlocked on the same lock.
        """
        comm = TCPComm(2, timeout=3.0)
        try:
            started = time.monotonic()
            with pytest.raises(BackendError):
                comm.run(programs.freeze_rank, [(1, 1 << 23)] * 2)
            assert time.monotonic() - started < 3.0 * 3 + 5.0
            assert comm._hub.missing_ranks() == [1]  # the unresponsive rank was dropped
        finally:
            comm.close()
        assert not any(proc.is_alive() for proc in comm._workers.values())


class TestFaultPoints:
    """``tcp.delay``/``tcp.drop`` fire once per frame, however many chunks."""

    @pytest.fixture(autouse=True)
    def _clear_plan(self):
        yield
        faults.install_plan(None)

    def test_delay_fires_once_per_frame(self):
        with TCPComm(2, timeout=30.0, chunk_bytes=64) as comm:
            plan = faults.FaultPlan("tcp.delay@p=1.0,seconds=0.0")
            faults.install_plan(plan)
            comm.run(tasks.collective_checks)
            faults.install_plan(None)
        # Hub frames to the one worker: the task, then one reply per collective.
        assert [f["site"] for f in plan.fired] == ["tcp.delay"] * 6
        sizes = [f["bytes"] for f in plan.fired[1:]]
        assert sizes == [24, 24, 24, 0, 2 * 8]

    def test_drop_swallows_exactly_one_frame(self):
        with TCPComm(2, timeout=2.0) as comm:
            plan = faults.FaultPlan("tcp.drop@count=1")
            faults.install_plan(plan)
            with pytest.raises(BackendError):  # the task frame never arrives
                comm.run(tasks.collective_checks)
            assert len(plan.fired) == 1
            assert comm.recover()
            assert [r["rank"] for r in comm.run(tasks.echo_rank)] == [0, 1]
            assert len(plan.fired) == 1


class TestCapabilities:
    def test_list_transports_is_honest(self):
        names = list_transports()
        assert names == ["serial", "thread", "tcp"]
        assert "process" not in names  # a spelling of tcp, not a transport

    def test_capability_flags_match_classes(self, comm):
        caps = transport_capabilities()[comm.transport]
        assert caps["multihost"] == comm.multihost
        assert caps["fault_tolerant"] == comm.fault_tolerant

    @pytest.mark.parametrize("cls", [SerialComm, ThreadComm, TCPComm])
    def test_public_surface_is_what_training_uses(self, cls):
        public = {n for n in dir(cls) if not n.startswith("_") and callable(getattr(cls, n))}
        assert public == {"allreduce", "bcast", "barrier", "run", "recover", "close"}

    def test_tcp_capability_flags(self):
        caps = transport_capabilities()["tcp"]
        assert caps["multihost"] and caps["fault_tolerant"]


class TestSpecParsing:
    def test_bare_and_counted_names(self):
        assert parse_transport_spec("serial").name == "serial"
        spec = parse_transport_spec("thread:4")
        assert (spec.name, spec.ranks) == ("thread", 4)
        spec = parse_transport_spec("process:2")
        assert spec == parse_transport_spec("tcp://127.0.0.1:0?ranks=2")
        assert parse_transport_spec("process").ranks is None

    def test_tcp_url_spec(self):
        spec = parse_transport_spec("tcp://10.0.0.5:9400?ranks=8&timeout=30&chunk_bytes=4096")
        assert spec.name == "tcp" and spec.ranks == 8
        assert spec.options["host"] == "10.0.0.5"
        assert spec.options["port"] == 9400
        assert spec.options["timeout"] == 30.0
        assert spec.options["chunk_bytes"] == 4096

    @pytest.mark.parametrize(
        "bad",
        [
            "tcp:4",
            "serial:2",
            "mpi:3",
            "mpi",  # the retired mpi4py adapter
            "thread:0",
            "warp-drive",
            "tcp://h:p?ranks=x",
            "process:0",
            "process:two",
            "local",  # the retired LocalComm alias
            "local:2",
        ],
    )
    def test_malformed_specs_raise(self, bad):
        with pytest.raises(BackendError):
            parse_transport_spec(bad)

    def test_process_one_is_a_tcp_comm_without_workers(self):
        with get_communicator("process:1") as comm:
            assert isinstance(comm, TCPComm) and comm.size == 1
            assert not comm._workers
            [result] = comm.run(tasks.collective_checks)
            assert np.array_equal(result["reduced"], np.zeros(3))
            assert result["int_ranks"] == [0]

    def test_get_communicator_accepts_specs(self):
        with get_communicator("thread:3") as comm:
            assert comm.transport == "thread" and comm.size == 3
        with get_communicator("tcp?ranks=2&timeout=60") as comm:
            assert comm.transport == "tcp" and comm.size == 2
        with get_communicator("process:2", timeout=60.0) as comm:
            assert isinstance(comm, TCPComm) and comm.size == 2
            assert comm.address[0] == "127.0.0.1"

    def test_embedded_rank_conflicts_rejected(self):
        with pytest.raises(BackendError):
            get_communicator("thread:3", ranks=2)

    def test_resolve_comm_none_paths(self):
        assert resolve_comm(None, None) is None
        comm = resolve_comm(None, 2)
        try:
            assert comm.transport == "thread" and comm.size == 2
        finally:
            comm.close()

    def test_resolve_comm_deprecation_shim(self):
        """The legacy comm=/ranks= pair still works, with a DeprecationWarning."""
        with pytest.warns(DeprecationWarning):
            comm = resolve_comm("thread", 3)
        try:
            assert comm.transport == "thread" and comm.size == 3
        finally:
            comm.close()

    def test_spec_strings_do_not_warn(self, recwarn):
        comm = resolve_comm("thread:3")
        try:
            assert comm.size == 3
        finally:
            comm.close()
        assert not [w for w in recwarn.list if w.category is DeprecationWarning]
