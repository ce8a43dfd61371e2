"""Benchmark-history accumulation for the CI perf trajectory.

``BENCH_kernels.json`` is a snapshot — it shows where the hot paths are
*now*, not where they have been.  This tool turns the snapshots into a
trajectory: the CI ``bench-history`` job downloads the previous run's
``BENCH_history`` artifact, appends a timestamped record extracted from the
fresh ``BENCH_kernels.json``, re-uploads the artifact, and writes a
step-summary table comparing the new run against the previous one.

Commands
--------
``append``
    Extract the key metrics from a ``BENCH_kernels.json`` and append them as
    one JSON line to ``<history-dir>/history.jsonl`` (created if missing).
``summary``
    Render a markdown table of the latest record vs its predecessor (with
    percentage deltas) to ``$GITHUB_STEP_SUMMARY`` when set, else stdout.

Both commands are plain file-in/file-out so they are unit-testable without
GitHub (``tests/instrumentation/test_bench_history.py``).
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
from pathlib import Path
from typing import Dict, List, Optional

HISTORY_FILENAME = "history.jsonl"

#: Tracked metrics: label -> (path into BENCH_kernels.json, higher_is_better)
METRICS = {
    "fused_speedup": (("fused_vs_unfused", "speedup"), True),
    "fused_seconds_per_batch": (("fused_vs_unfused", "fused_seconds_per_batch"), False),
    "pipelined_speedup": (("pipelined_training", "speedup"), True),
    "pipelined_seconds_per_batch": (
        ("pipelined_training", "pipelined_seconds_per_batch"),
        False,
    ),
    "serving_numpy_rows_per_s": (
        ("streaming_inference", "backends", "numpy", "rows_per_second"),
        True,
    ),
    "training_numpy_batches_per_s": (
        ("fused_training_backends", "backends", "numpy", "batches_per_second"),
        True,
    ),
    "checkpoint_overhead": (("checkpoint_overhead", "overhead"), False),
}


def _dig(payload: Dict, path) -> Optional[float]:
    node = payload
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    try:
        return float(node)
    except (TypeError, ValueError):
        return None


def _comm_seconds(payload: Dict) -> Dict[str, float]:
    """Per-transport allreduce seconds from the comm_throughput section."""
    rows = payload.get("comm_throughput", {}).get("transports", [])
    out: Dict[str, float] = {}
    for row in rows:
        if isinstance(row, dict) and "transport" in row and "seconds_per_allreduce" in row:
            out[str(row["transport"])] = float(row["seconds_per_allreduce"])
    return out


def extract_record(
    bench: Dict, commit: Optional[str] = None, timestamp: Optional[str] = None
) -> Dict[str, object]:
    """One flat history record from a loaded ``BENCH_kernels.json``."""
    record: Dict[str, object] = {
        "timestamp": timestamp
        or datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "commit": commit or "",
    }
    for label, (path, _) in METRICS.items():
        value = _dig(bench, path)
        if value is not None:
            record[label] = value
    comm = _comm_seconds(bench)
    for transport, seconds in comm.items():
        record[f"comm_{transport}_allreduce_s"] = seconds
    return record


def load_history(history_dir: Path) -> List[Dict[str, object]]:
    path = Path(history_dir) / HISTORY_FILENAME
    if not path.is_file():
        return []
    records = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            records.append(json.loads(line))
        except ValueError:
            continue  # a corrupt line must not wedge the history job
    return records


def append_record(
    history_dir: Path,
    bench_path: Path,
    commit: Optional[str] = None,
    timestamp: Optional[str] = None,
) -> Dict[str, object]:
    """Append the current benchmark snapshot to the history file."""
    bench = json.loads(Path(bench_path).read_text())
    record = extract_record(bench, commit=commit, timestamp=timestamp)
    history_dir = Path(history_dir)
    history_dir.mkdir(parents=True, exist_ok=True)
    with open(history_dir / HISTORY_FILENAME, "a") as handle:
        handle.write(json.dumps(record) + "\n")
    return record


def _format_value(value: object) -> str:
    if isinstance(value, float):
        if value >= 1000:
            return f"{value:,.0f}"
        return f"{value:.4g}"
    return str(value)


def render_summary(records: List[Dict[str, object]]) -> str:
    """Markdown table of the latest record vs its predecessor."""
    if not records:
        return "No benchmark history yet.\n"
    current = records[-1]
    previous = records[-2] if len(records) > 1 else None
    lines = [
        "## Benchmark trajectory",
        "",
        f"Run {len(records)} — commit `{current.get('commit', '') or 'n/a'}` "
        f"at {current.get('timestamp', 'n/a')}"
        + (
            f" (vs `{previous.get('commit', '') or 'n/a'}`)"
            if previous is not None
            else " (first recorded run)"
        ),
        "",
        "| metric | current | previous | delta |",
        "|---|---|---|---|",
    ]
    keys = [k for k in current.keys() if k not in ("timestamp", "commit")]
    higher_better = {label: better for label, (_, better) in METRICS.items()}
    for key in keys:
        value = current[key]
        prev = previous.get(key) if previous else None
        if isinstance(value, float) and isinstance(prev, (int, float)) and prev:
            delta = (value - prev) / abs(prev) * 100.0
            better = higher_better.get(key, key.endswith("_per_s"))
            improved = delta >= 0 if better else delta <= 0
            arrow = "🟢" if improved else "🔴"
            delta_text = f"{arrow} {delta:+.1f}%"
        else:
            delta_text = "—"
        lines.append(
            f"| {key} | {_format_value(value)} | "
            f"{_format_value(prev) if prev is not None else '—'} | {delta_text} |"
        )
    lines.append("")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_append = sub.add_parser("append", help="append the current snapshot to the history")
    p_append.add_argument("--bench", type=str, default="BENCH_kernels.json")
    p_append.add_argument("--history-dir", type=str, default="BENCH_history")
    p_append.add_argument("--commit", type=str, default=os.environ.get("GITHUB_SHA", ""))

    p_summary = sub.add_parser("summary", help="render the trajectory summary table")
    p_summary.add_argument("--history-dir", type=str, default="BENCH_history")

    args = parser.parse_args(argv)
    if args.command == "append":
        record = append_record(args.history_dir, args.bench, commit=args.commit[:12])
        print(json.dumps(record, indent=2))
        return 0
    # summary
    text = render_summary(load_history(args.history_dir))
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a") as handle:
            handle.write(text)
    print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
