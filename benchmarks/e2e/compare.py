"""Compare two result files of ``run.py``: ``python3 compare.py A.json B.json``.

One row per workload x end-to-end metric: both medians with quartiles, the
worsening of B against A *with its base*, and a verdict:

``ok``          B's median is no worse than A's by more than the metric's bound;
``regressed``   it is worse by more than the bound;
``unresolved``  the run-to-run spread (quartile distance / median) of either
                side is wider than the bound and the two sets of runs overlap —
                reported as unresolved, not as unchanged, unless every run of B
                reads better than every run of A (then ``ok``) or every run
                reads worse and the medians differ by more than the bound
                (then ``regressed``).

Exit status 1 if any row is not ``ok``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List

import catalogue
import stats


def worsening(metric: catalogue.Metric, base: float, other: float) -> float:
    """Share of ``base`` by which ``other`` is worse (negative = better)."""
    if base == 0:
        return 0.0
    change = (other - base) / abs(base)
    return change if metric.better == "lower" else -change


def verdict(metric: catalogue.Metric, runs_a: List[float], runs_b: List[float]) -> str:
    a, b = stats.summarize(runs_a), stats.summarize(runs_b)
    worse = worsening(metric, a["median"], b["median"])
    if max(a["spread"], b["spread"]) <= metric.bound:
        return "regressed" if worse > metric.bound else "ok"
    pairwise = [worsening(metric, x, y) for x in runs_a for y in runs_b]
    if all(w < 0 for w in pairwise):
        return "ok"
    if all(w > 0 for w in pairwise) and worse > metric.bound:
        return "regressed"
    return "unresolved"


def compare_documents(doc_a: Dict[str, object], doc_b: Dict[str, object]) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    for name, side_a in doc_a["workloads"].items():
        side_b = doc_b["workloads"].get(name)
        if side_b is None:
            continue
        for metric in catalogue.END_TO_END:
            runs_a = [r["metrics"][metric.name] for r in side_a["runs"] if metric.name in r["metrics"]]
            runs_b = [r["metrics"][metric.name] for r in side_b["runs"] if metric.name in r["metrics"]]
            if not runs_a or not runs_b:
                continue
            a, b = stats.summarize(runs_a), stats.summarize(runs_b)
            rows.append(
                {
                    "workload": name,
                    "metric": metric.name,
                    "unit": metric.unit,
                    "bound": metric.bound,
                    "a": a,
                    "b": b,
                    "worsening": worsening(metric, a["median"], b["median"]),
                    "verdict": verdict(metric, runs_a, runs_b),
                }
            )
    return rows


def render(rows: List[Dict[str, object]]) -> str:
    lines = [
        f"{'workload':<22s}{'metric':<20s}{'A median [q1, q3] n':<40s}{'B median [q1, q3] n':<40s}"
        f"{'B worse by (of A)':<28s}{'bound':<8s}verdict"
    ]
    for row in rows:
        a, b = row["a"], row["b"]
        side = "{median:.5g} [{q1:.5g}, {q3:.5g}] n={n}"
        change = f"{row['worsening']:+.2%} of {a['median']:.5g} {row['unit']}"
        lines.append(
            f"{row['workload']:<22s}{row['metric']:<20s}{side.format(**a):<40s}{side.format(**b):<40s}"
            f"{change:<28s}{row['bound']:<8.3g}{row['verdict']}"
        )
    return "\n".join(lines)


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    doc_a, doc_b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    rows = compare_documents(doc_a, doc_b)
    print(render(rows))
    return 0 if all(row["verdict"] == "ok" for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
