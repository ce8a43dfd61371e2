"""Repeated wall-clock timing, for ``repro benchmark``."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = ["RepeatTimer", "TimingStatistics"]


@dataclass
class TimingStatistics:
    """Summary of repeated timing measurements (seconds)."""

    samples: List[float]

    @property
    def mean(self) -> float:
        return float(np.mean(self.samples)) if self.samples else float("nan")

    @property
    def std(self) -> float:
        return float(np.std(self.samples)) if self.samples else float("nan")


class RepeatTimer:
    """Run a callable several times and collect timing statistics.

    Parameters
    ----------
    repeats:
        Number of timed runs.
    warmup:
        Untimed runs performed first (to populate caches / JIT-like effects).
    """

    def __init__(self, repeats: int = 5, warmup: int = 1) -> None:
        if repeats <= 0:
            raise ConfigurationError("repeats must be positive")
        if warmup < 0:
            raise ConfigurationError("warmup must be non-negative")
        self.repeats = int(repeats)
        self.warmup = int(warmup)

    def measure(self, func: Callable[[], object]) -> TimingStatistics:
        for _ in range(self.warmup):
            func()
        samples: List[float] = []
        for _ in range(self.repeats):
            start = time.perf_counter()
            func()
            samples.append(time.perf_counter() - start)
        return TimingStatistics(samples=samples)
