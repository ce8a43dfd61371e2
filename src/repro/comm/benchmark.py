"""Per-transport collective throughput measurement.

Used by ``benchmarks/bench_kernels.py`` (the ``comm_throughput`` section of
``BENCH_kernels.json``) and by ``repro benchmark --comm ... --ranks ...`` so
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

#: The packed statistics vectors ``[count, sum x, sum a, sum x^T a]`` the
#: ``benchmarks/e2e`` workloads allreduce once per batch (280 inputs into
#: 1x150 and 4x300 hidden units): what a training run really pays.
E2E_PAYLOAD_FLOATS = {
    "narrow_tcp2": 1 + 280 + 150 + 280 * 150,
    "wide_process2": 1 + 280 + 1200 + 280 * 1200,
}


def _mbytes_per_second(nbytes: float, n_ranks: int, seconds: float) -> float:
    return nbytes * n_ranks / max(seconds, 1e-12) / 1e6


def measure_comm_throughput(
    transports: Sequence[str] = ("serial", "thread", "process", "tcp"),
    ranks: int = 2,
    shape: Sequence[int] = (281, 300),
    repeats: int = 20,
    warmup: int = 3,
    timeout: Optional[float] = None,
) -> Dict[str, object]:
    """Best-case allreduce latency/bandwidth for each transport.

    Every transport runs the same SPMD loop (:func:`repro.comm.tasks.allreduce_loop`)
    over a ``shape`` float64 payload at ``ranks`` ranks (the serial transport
    is always measured at one rank — it has no peers by construction).
    Entries are transport *specs* (``"tcp"`` measures a loopback rendezvous
    with spawned workers; ``"tcp://host:port?ranks=N"`` works too); a spec's
    embedded rank count wins over ``ranks``.

    Each row also reports the nonblocking path
    (:func:`repro.comm.tasks.iallreduce_loop`): ``seconds_per_iallreduce``
    is issue + wait, and ``overlap_window_seconds`` is the part of that
    latency a training loop can hide behind compute — the time between
    ``iallreduce`` returning and ``wait()`` completing.

    ``e2e_payloads`` holds one more row per transport and payload the
    end-to-end workloads really reduce (:data:`E2E_PAYLOAD_FLOATS`, blocking
    allreduce only), and when both ``process`` and ``tcp`` were measured the
    result carries ``tcp_vs_process``: tcp seconds per allreduce over
    process seconds, per payload — the figure ``bench_kernels.py
    --check-comm-tcp`` gates.
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
        if timeout is not None and parsed.name in ("thread", "process", "tcp"):
            kwargs["timeout"] = timeout
        try:
            comm = get_communicator(transport, ranks=n_ranks, **kwargs)
        except BackendError as exc:  # pragma: no cover - constrained sandboxes
            rows.append({"transport": parsed.name, "ranks": n_ranks, "error": str(exc)})
            continue
        try:
            results = comm.run(
                tasks.allreduce_loop,
                [(tuple(shape), repeats, warmup)] * comm.size,
            )
            nb_results = comm.run(
                tasks.iallreduce_loop,
                [(tuple(shape), repeats, warmup)] * comm.size,
            )
            for name, floats in E2E_PAYLOAD_FLOATS.items():
                timed = comm.run(tasks.allreduce_loop, [((floats,), repeats, warmup)] * comm.size)
                e2e_seconds = float(timed[0]["seconds_per_call"])
                e2e_rows.append(
                    {
                        "payload": name,
                        "transport": parsed.name,
                        "ranks": n_ranks,
                        "seconds_per_allreduce": e2e_seconds,
                        "payload_mbytes": floats * 8 / 1e6,
                        "mbytes_per_second": _mbytes_per_second(floats * 8, n_ranks, e2e_seconds),
                    }
                )
            rank0 = results[0]
            nb_rank0 = nb_results[0]
            seconds = float(rank0["seconds_per_call"])
            nbytes = float(rank0["nbytes"])
            nb_seconds = float(nb_rank0["seconds_per_call"])
            nb_issue = float(nb_rank0["issue_seconds"])
            rows.append(
                {
                    "transport": parsed.name,
                    "ranks": n_ranks,
                    "seconds_per_allreduce": seconds,
                    "payload_mbytes": nbytes / 1e6,
                    "mbytes_per_second": _mbytes_per_second(nbytes, n_ranks, seconds),
                    "seconds_per_iallreduce": nb_seconds,
                    "overlap_window_seconds": max(nb_seconds - nb_issue, 0.0),
                }
            )
        except BackendError as exc:  # pragma: no cover - constrained sandboxes
            rows.append({"transport": parsed.name, "ranks": n_ranks, "error": str(exc)})
        finally:
            comm.close()
    outcome: Dict[str, object] = {
        "config": {
            "shape": [int(s) for s in shape],
            "ranks": int(ranks),
            "repeats": int(repeats),
        },
        "transports": rows,
        "e2e_payloads": e2e_rows,
    }
    per_call = {
        (row.get("payload", "default"), row["transport"]): row["seconds_per_allreduce"]
        for row in rows + e2e_rows
        if "error" not in row
    }
    if ("default", "tcp") in per_call and ("default", "process") in per_call:
        outcome["tcp_vs_process"] = {
            name: per_call[(name, "tcp")] / per_call[(name, "process")]
            for name in ["default", *E2E_PAYLOAD_FLOATS]
        }
    return outcome
