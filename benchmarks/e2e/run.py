"""The e2e benchmark's one command.

Contract mode (what the driver runs, one workload, one run)::

    python3 benchmarks/e2e/run.py --workload W --seed S --seconds T --trace 0|1

prints every metric by name with its unit, checks outputs, and ends with one
JSON line ``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

By hand::

    python3 benchmarks/e2e/run.py --seed 1                 # every workload once
    python3 benchmarks/e2e/run.py --seed 1 --workload wide_serial --runs 10
    python3 benchmarks/e2e/run.py --seed 1 --trace 1       # traced pass, per-layer metrics
    python3 benchmarks/e2e/run.py --seed 1 --self-check    # ABAB... of the same code
    python3 benchmarks/e2e/run.py --seed 1 --quick         # smoke sizes, a few seconds each

Run ``i`` of a workload uses seed ``S + i``; the across-run figure is the median
with quartiles and run count.  Every run is a fresh subprocess under the pinned
environment of ``hostenv``.  Results are written to ``--out`` (default
``.benchmarks/e2e/result.json``) in the form ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import catalogue
import compare
import hostenv
import stats

HERE = Path(__file__).resolve().parent
RESULT_DIR = Path(".benchmarks") / "e2e"
#: The contract allows one invocation 180 s; leave room to report a failure.
WORKER_TIMEOUT_S = 170.0


def run_worker(
    workload: str, seed: int, seconds: float, trace: bool, quick: bool, check_reference: bool = True
) -> Dict[str, object]:
    """One workload run in a fresh pinned subprocess; returns its result record."""
    RESULT_DIR.mkdir(parents=True, exist_ok=True)
    out_path = RESULT_DIR / f"worker-{workload}-{os.getpid()}.json"
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(int(trace)),
        "--quick", str(int(quick)),
        "--check-reference", str(int(check_reference)),
        "--spawned-at", repr(time.time()),
        "--out", str(out_path),
    ]  # fmt: skip
    # Own session: whatever the worker spawned (ranks, load generator) can be
    # stopped with it.  Its stdout goes to stderr; ours carries the result lines.
    worker = subprocess.Popen(
        command,
        env=hostenv.pinned_environment(os.environ),
        stdout=sys.stderr,
        start_new_session=True,
    )
    try:
        code = worker.wait(timeout=WORKER_TIMEOUT_S)
        if code != 0:
            raise subprocess.CalledProcessError(code, command)
        return json.loads(out_path.read_text(encoding="utf-8"))
    finally:
        try:
            os.killpg(worker.pid, signal.SIGKILL)  # stragglers only; the worker has exited
        except ProcessLookupError:
            pass
        worker.wait()
        out_path.unlink(missing_ok=True)


def print_record(record: Dict[str, object]) -> None:
    table = catalogue.units(catalogue.PER_LAYER if record["trace"] else catalogue.END_TO_END)
    host = record["host"]
    flag = "  [noisy_host]" if host["noisy_host"] else ""
    print(
        f"== {record['workload']} seed={record['seed']} trace={int(record['trace'])} "
        f"load={host['load_average_1min']:.2f}{flag}"
    )
    for name, value in record["metrics"].items():
        print(f"  {name:<40s} {value:>16.6g} {table[name]}")
    details = record["details"]
    tail = details["serve_latency_tail"]
    print(
        f"  ({len(details['fit_walls_s'])} fits, {len(details['hidden_epoch_walls_s'])} hidden epochs, "
        f"{len(details['predict_pass_walls_s'])} predict passes, "
        f"{details['serve_latency_samples']} request latencies; "
        f"p{tail['percentile']:g} = {tail['ms']:.3f} ms; "
        f"closed loop, {details['serve']['connections']} connections)"
    )
    print(f"  ops_attempted={record['ops_attempted']} ops_failed={record['ops_failed']}")
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")


def contract_line(records: List[Dict[str, object]]) -> str:
    """The last stdout line: medians over ``records`` (one record: its values)."""
    names = list(records[0]["metrics"])
    table = catalogue.units(catalogue.PER_LAYER if records[0]["trace"] else catalogue.END_TO_END)
    metrics = {
        name: {"value": stats.median([r["metrics"][name] for r in records]), "unit": table[name]}
        for name in names
    }
    return json.dumps(
        {
            "correct": all(r["correct"] for r in records),
            "attempted": sum(r["ops_attempted"] for r in records),
            "failed": sum(r["ops_failed"] for r in records),
            "metrics": metrics,
        }
    )


def run_set(
    workloads: List[str],
    seed: int,
    runs: int,
    seconds: float,
    trace: bool,
    quick: bool,
    check_reference: bool = True,
) -> Dict[str, List[Dict[str, object]]]:
    records: Dict[str, List[Dict[str, object]]] = {name: [] for name in workloads}
    for index in range(runs):
        for name in workloads:
            record = run_worker(name, seed + index, seconds, trace, quick, check_reference)
            print_record(record)
            records[name].append(record)
    return records


def result_document(records: Dict[str, List[Dict[str, object]]]) -> Dict[str, object]:
    """What ``--out`` holds and ``compare.py`` reads."""
    document: Dict[str, object] = {"workloads": {}}
    for name, runs in records.items():
        summary = {
            metric: stats.summarize([r["metrics"][metric] for r in runs])
            for metric in runs[0]["metrics"]
        }
        document["workloads"][name] = {"runs": runs, "summary": summary}
    return document


def update_reference(records: Dict[str, List[Dict[str, object]]]) -> None:
    """Record each run's ``test_auc`` as the reference for its workload and seed."""
    path = HERE / "reference.json"
    table = json.loads(path.read_text(encoding="utf-8"))
    for name, runs in records.items():
        entry = table["test_auc"].setdefault(name, {})
        for record in runs:
            entry[str(record["seed"])] = record["metrics"]["test_auc"]
        table["test_auc"][name] = dict(sorted(entry.items(), key=lambda item: int(item[0])))
    path.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")


def self_check(workloads: List[str], seed: int, runs: int, seconds: float, quick: bool) -> int:
    """Two interleaved sets (ABAB...) of the same code must agree within the bounds."""
    sets = {"A": {name: [] for name in workloads}, "B": {name: [] for name in workloads}}
    for index in range(runs):
        for label in ("A", "B"):
            for name in workloads:
                record = run_worker(name, seed + index, seconds, False, quick)
                print(f"[set {label}]", end=" ")
                print_record(record)
                sets[label][name].append(record)
    rows = compare.compare_documents(result_document(sets["A"]), result_document(sets["B"]))
    print(compare.render(rows))
    failed_ops = sum(r["ops_failed"] for s in sets.values() for runs_ in s.values() for r in runs_)
    beyond = [row for row in rows if row["verdict"] == "regressed"]
    unresolved = sum(row["verdict"] == "unresolved" for row in rows)
    print(
        f"self-check: {len(beyond)} pair(s) beyond the bound, {unresolved} unresolved "
        f"(spread wider than the bound), {failed_ops} failed ops"
    )
    return 1 if failed_ops or beyond else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, required=True, help="data seed and request order")
    parser.add_argument("--workload", choices=[w.name for w in catalogue.WORKLOADS])
    parser.add_argument("--seconds", type=float, default=float(catalogue.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--quick", action="store_true", help="smoke sizes (not comparable)")
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument(
        "--update-reference",
        action="store_true",
        help="record test_auc of these runs in reference.json instead of checking against it",
    )
    parser.add_argument("--out", type=Path, default=RESULT_DIR / "result.json")
    args = parser.parse_args(argv)

    if not (hostenv.SRC_DIR / "repro" / "__init__.py").is_file():
        print(f"error: the program under test is missing: {hostenv.SRC_DIR / 'repro'}", file=sys.stderr)
        return 2
    workloads = [args.workload] if args.workload else [w.name for w in catalogue.WORKLOADS]
    try:
        if args.self_check:
            return self_check(workloads, args.seed, max(args.runs, 2), args.seconds, args.quick)
        records = run_set(
            workloads, args.seed, args.runs, args.seconds, bool(args.trace), args.quick,
            check_reference=not args.update_reference,
        )  # fmt: skip
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: workload subprocess failed: {exc}", file=sys.stderr)
        return 1
    if args.update_reference and not (args.trace or args.quick):
        update_reference(records)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(result_document(records)), encoding="utf-8")
    for name in workloads:
        print(contract_line(records[name]))
    return 0 if all(r["correct"] for runs in records.values() for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
