"""Machine-speed calibration: timings are reported in *calibrated* seconds.

The box this benchmark is gated on changes speed under its neighbours by tens
of percent for minutes at a time (steal time plus shared caches): the same
``Network.fit`` took 2.6–3.4 s over twelve consecutive processes, and a fixed
numpy kernel run beside it moved in step (51–64 ms).  Dividing each fit by the
kernel time measured just before and just after it cut the run-to-run spread
(quartile distance / median) of ``fit_s`` from 0.112 to 0.047 and of the
hidden-epoch time from 0.118 to 0.023.

So every timed unit of the training and bulk-predict stages (a fit with its
hidden epochs, a bulk pass) is bracketed by :meth:`Calibrator.sample`, and its
wall time is divided by the *speed factor*
``k = mean(sample before, sample after) / REFERENCE_S`` — ``k = 1`` on the
quiet box, ``k = 1.3`` when the machine is running 30 % slow.  The kernel is
part of the benchmark, fixed, and mixes what the program mixes (BLAS GEMMs on
cache-resident operands, ``exp``, row reductions), so a change to the program
cannot move it; the raw walls and every ``k`` are kept in the result's details.

The serve stage is one long unit with nowhere to sample inside it, and a few
samples around it scatter more than the latency does, so its ``k`` is the
median of every sample of the run.  Over 104 undisturbed runs the served
latency followed that ``k`` with slope 0.9–1.1 in log-log, and dividing by it
took the pooled spread of ``serve_p50_ms`` from 0.23–0.29 to 0.12–0.20 on the
64-row workloads (the stage needs two processes scheduled together, which a
one-core kernel tracks only in part).
Time spent waiting on a timer is not CPU time and is not scaled — see
:func:`calibrated_latency_ms`.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Sequence

#: One kernel run on the quiet 2-core box, in seconds (defines ``k = 1``).
REFERENCE_S = 0.019
KERNEL_ROUNDS = 3
RUNS_PER_SAMPLE = 3
WARMUP_SAMPLES = 3


class Calibrator:
    """Times the fixed kernel; one :meth:`sample` is the median of three runs (~20 ms each)."""

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(20210521)
        self._np = np
        self._x = rng.random((256, 280))
        self._w = rng.random((280, 1200))
        self.samples: List[float] = []
        for _ in range(WARMUP_SAMPLES):
            self._run()

    def _run(self) -> float:
        np, x, w = self._np, self._x, self._w
        start = time.perf_counter()
        for _ in range(KERNEL_ROUNDS):
            support = x @ w
            activations = np.exp(support - support.max(axis=1, keepdims=True))
            activations /= activations.sum(axis=1, keepdims=True)
            x.T @ activations
        return time.perf_counter() - start

    def sample(self) -> float:
        value = statistics.median(self._run() for _ in range(RUNS_PER_SAMPLE))
        self.samples.append(value)
        return value


def speed_factor(samples: Sequence[float]) -> float:
    """``k`` for a unit from the samples around it (1 = the reference speed)."""
    return statistics.median(samples) / REFERENCE_S


def calibrated_latency_ms(latency_ms: float, timer_wait_ms: float, k: float) -> float:
    """Scale the CPU part of a latency by ``1/k`` and leave the timer wait alone.

    A request flushed by the micro-batcher's deadline sat ``timer_wait_ms`` on
    an ``asyncio`` timer, which lasts the same on a slow machine; only the rest
    (parse, dispatch, predict, reply) runs at machine speed.  Scaling all of
    the one-row ``narrow_tcp2`` latency by ``k`` took its spread from 0.02 to
    0.07–0.11; scaling only the part above the 5 ms timer keeps it at 0.04.
    """
    timer_wait_ms = min(max(timer_wait_ms, 0.0), latency_ms)
    return timer_wait_ms + (latency_ms - timer_wait_ms) / k

