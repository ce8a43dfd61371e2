"""Per-transport collective throughput measurement.

Used by ``benchmarks/bench_kernels.py`` (the ``comm_throughput`` section of
``BENCH_kernels.json``) and by ``repro benchmark --comm SPEC`` so
the communicator subsystem lands with a tracked perf trajectory alongside
the compute kernels.  The payload defaults to the Higgs-sized trace matrix
(the array data-parallel training allreduces once per batch), so the figure
is directly the per-batch communication cost of each transport.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.comm import tasks
from repro.comm.factory import get_communicator, parse_transport_spec
from repro.exceptions import BackendError

__all__ = ["measure_comm_throughput", "E2E_PAYLOAD_FLOATS"]

#: The ``(batch, n_hypercolumns)`` winner matrices the ``benchmarks/e2e``
#: comm workloads allreduce once per batch (``sample`` competition on
#: one-hot inputs): what a training run really pays, 256 B and 8 KB.
E2E_PAYLOAD_FLOATS = {
    "narrow_tcp2": 32 * 1,
    "wide_process2": 256 * 4,
}


def _allreduce_row(comm, shape: Sequence[int], repeats: int, warmup: int) -> Dict[str, float]:
    """Rank 0's blocking-allreduce figures for one payload shape."""
    timed = comm.run(tasks.allreduce_loop, [(tuple(shape), repeats, warmup)] * comm.size)[0]
    seconds, nbytes = float(timed["seconds_per_call"]), float(timed["nbytes"])
    return {
        "seconds_per_allreduce": seconds,
        "p50_seconds_per_allreduce": float(timed["p50_seconds_per_call"]),
        "payload_mbytes": nbytes / 1e6,
        "mbytes_per_second": nbytes * comm.size / max(seconds, 1e-12) / 1e6,
    }


def measure_comm_throughput(
    transports: Sequence[str] = ("serial", "thread", "tcp"),
    ranks: int = 2,
    shape: Sequence[int] = (281, 300),
    repeats: int = 20,
    warmup: int = 3,
    timeout: Optional[float] = None,
) -> Dict[str, object]:
    """Allreduce latency (best and median call) and bandwidth per transport.

    Every transport runs the same SPMD loop (:func:`repro.comm.tasks.allreduce_loop`)
    over a ``shape`` float64 payload at ``ranks`` ranks (the serial transport
    is always measured at one rank — it has no peers by construction).
    Entries are transport *specs* (``"tcp"`` measures a loopback rendezvous
    with spawned workers; ``"tcp://host:port?ranks=N"`` works too); a spec's
    embedded rank count wins over ``ranks``.

    ``e2e_payloads`` holds one more row per transport and payload the
    end-to-end workloads really reduce (:data:`E2E_PAYLOAD_FLOATS`).
    """
    rows: List[Dict[str, object]] = []
    e2e_rows: List[Dict[str, object]] = []
    for transport in transports:
        parsed = parse_transport_spec(transport)
        if parsed.name == "serial":
            n_ranks = 1
        elif parsed.ranks is not None:
            n_ranks = int(parsed.ranks)
        else:
            n_ranks = int(ranks)
        kwargs = {}
        if timeout is not None and parsed.name in ("thread", "tcp"):
            kwargs["timeout"] = timeout
        try:
            comm = get_communicator(transport, ranks=n_ranks, **kwargs)
        except BackendError as exc:  # pragma: no cover - constrained sandboxes
            rows.append({"transport": parsed.name, "ranks": n_ranks, "error": str(exc)})
            continue
        try:
            row = _allreduce_row(comm, shape, repeats, warmup)
            rows.append({"transport": parsed.name, "ranks": n_ranks} | row)
            for name, floats in E2E_PAYLOAD_FLOATS.items():
                row = _allreduce_row(comm, (floats,), repeats, warmup)
                e2e_rows.append({"payload": name, "transport": parsed.name, "ranks": n_ranks} | row)
        except BackendError as exc:  # pragma: no cover - constrained sandboxes
            rows.append({"transport": parsed.name, "ranks": n_ranks, "error": str(exc)})
        finally:
            comm.close()
    return {
        "config": {
            "shape": [int(s) for s in shape],
            "ranks": int(ranks),
            "repeats": int(repeats),
        },
        "transports": rows,
        "e2e_payloads": e2e_rows,
    }
