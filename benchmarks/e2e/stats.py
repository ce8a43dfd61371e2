"""Order statistics used by the e2e benchmark (standard library only).

Every timing the benchmark reports is a median of repeated equal units, and
every tail figure is the highest percentile the sample can support, so the
rules live here, in one place, with their tests.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence, Tuple

#: Percentiles tried, highest first, when picking a tail figure.
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0)
#: A percentile is supported when at least this many samples lie beyond it.
MIN_SAMPLES_BEYOND = 10


def _rank(pct: float, n_samples: int) -> int:
    """Nearest rank ``ceil(pct/100 * n)``; rounded first, so 99.9% of 10000 is 9990, not 9991."""
    return max(math.ceil(round(pct * n_samples / 100.0, 9)), 1)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with >= pct% at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < pct <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {pct}")
    ordered = sorted(values)
    return float(ordered[_rank(pct, len(ordered)) - 1])


def highest_supported_percentile(n_samples: int) -> float:
    """The highest percentile with at least ten samples beyond it (0 if none)."""
    for pct in TAIL_PERCENTILES:
        if n_samples - _rank(pct, n_samples) >= MIN_SAMPLES_BEYOND:
            return pct
    return 0.0


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(percentile, value)`` at the highest supported percentile."""
    pct = highest_supported_percentile(len(values))
    if pct == 0.0:
        return 0.0, float(max(values)) if values else 0.0
    return pct, percentile(values, pct)


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    """First and third quartile as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        only = float(values[0]) if values else 0.0
        return only, only
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q3)


def summarize(values: List[float]) -> Dict[str, float]:
    """Median, quartiles, run count and the quartile distance as a share of the median."""
    q1, q3 = quartiles(values)
    mid = median(values)
    return {
        "median": mid,
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "spread": (q3 - q1) / abs(mid) if mid else 0.0,
    }
