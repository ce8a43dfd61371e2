"""`--quick` smoke: every workload emits every metric by name, and a trace file.

Two subprocess runs per workload (untraced, traced) at smoke sizes.
"""

import json
import subprocess
import sys

import pytest

import catalogue
import hostenv

RUN = [sys.executable, str(hostenv.REPO_ROOT / "benchmarks" / "e2e" / "run.py")]


def _last_json_line(stdout: str):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w.name for w in catalogue.WORKLOADS])
def test_quick_run_emits_the_catalogue(workload, tmp_path):
    for trace, metrics in ((0, catalogue.END_TO_END), (1, catalogue.PER_LAYER)):
        done = subprocess.run(
            RUN + ["--quick", "--workload", workload, "--seed", "7", "--seconds", "3",
                   "--trace", str(trace), "--out", str(tmp_path / "result.json")],
            cwd=tmp_path, capture_output=True, text=True, timeout=120,
        )  # fmt: skip
        assert done.returncode == 0, done.stderr[-2000:]
        result = _last_json_line(done.stdout)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [m.name for m in metrics]
        for metric in metrics:
            assert result["metrics"][metric.name]["unit"] == metric.unit
            assert isinstance(result["metrics"][metric.name]["value"], (int, float))
        if trace == 0:
            assert all(result["metrics"][m.name]["value"] > 0 for m in metrics)
    trace_file = tmp_path / ".benchmarks" / "e2e" / f"trace-{workload}.json"
    spans = json.loads(trace_file.read_text(encoding="utf-8"))
    assert spans["columns"] == ["id", "name", "start", "end", "parent", "stage"]
    assert {"core.fit", "serving.run_batch"} <= {span[1] for span in spans["spans"]}
    leftovers = [p.name for p in (tmp_path / ".benchmarks" / "e2e").iterdir()]
    assert leftovers == [f"trace-{workload}.json"], leftovers


def test_missing_program_exits_nonzero_without_a_result(tmp_path):
    """In a directory holding only the benchmark, the command must fail cleanly."""
    import shutil

    bench = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(hostenv.REPO_ROOT / "benchmarks" / "e2e", bench,
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(hostenv.REPO_ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "wide_serial", "--seed", "1",
         "--seconds", "3", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )  # fmt: skip
    assert done.returncode != 0
    assert done.stdout.strip() == ""
