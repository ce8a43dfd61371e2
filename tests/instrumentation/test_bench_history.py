"""Tests for the benchmark-history accumulation tool.

``benchmarks/bench_history.py`` is a standalone script (the benchmarks tree
is not an installed package), so it is loaded by file path here.
"""

import importlib.util
import json
from pathlib import Path

import pytest

MODULE_PATH = (
    Path(__file__).resolve().parent.parent.parent / "benchmarks" / "bench_history.py"
)


@pytest.fixture(scope="module")
def bench_history():
    spec = importlib.util.spec_from_file_location("bench_history", MODULE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def bench_json(tmp_path):
    payload = {
        "benchmark": "bench_kernels",
        "fused_vs_unfused": {"speedup": 1.01, "fused_seconds_per_batch": 0.0025},
        "pipelined_training": {"speedup": 1.21, "pipelined_seconds_per_batch": 0.0022},
        "streaming_inference": {
            "backends": {
                "numpy": {"rows_per_second": 180000.0},
            }
        },
        "fused_training_backends": {"backends": {"numpy": {"batches_per_second": 400.0}}},
        "comm_throughput": {
            "transports": [
                {"transport": "serial", "seconds_per_allreduce": 2.5e-05},
                {"transport": "tcp", "seconds_per_allreduce": 2.4e-04},
            ]
        },
    }
    path = tmp_path / "BENCH_kernels.json"
    path.write_text(json.dumps(payload))
    return path


class TestAppend:
    def test_append_creates_and_extends_history(self, bench_history, bench_json, tmp_path):
        history_dir = tmp_path / "BENCH_history"
        first = bench_history.append_record(history_dir, bench_json, commit="abc123")
        assert first["fused_speedup"] == 1.01
        assert first["pipelined_speedup"] == 1.21
        assert first["comm_tcp_allreduce_s"] == 2.4e-04
        assert first["commit"] == "abc123"
        second = bench_history.append_record(history_dir, bench_json, commit="def456")
        records = bench_history.load_history(history_dir)
        assert len(records) == 2
        assert records[0]["commit"] == "abc123"
        assert records[1] == json.loads(json.dumps(second))

    def test_missing_sections_are_skipped(self, bench_history, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"fused_vs_unfused": {"speedup": 1.4}}))
        record = bench_history.extract_record(json.loads(path.read_text()), commit="x")
        assert record["fused_speedup"] == 1.4
        assert "pipelined_speedup" not in record

    def test_corrupt_history_lines_are_ignored(self, bench_history, bench_json, tmp_path):
        history_dir = tmp_path / "BENCH_history"
        bench_history.append_record(history_dir, bench_json, commit="aaa")
        with open(history_dir / bench_history.HISTORY_FILENAME, "a") as handle:
            handle.write("{not json\n")
        bench_history.append_record(history_dir, bench_json, commit="bbb")
        assert len(bench_history.load_history(history_dir)) == 2


class TestSummary:
    def test_first_run_summary(self, bench_history, bench_json, tmp_path):
        history_dir = tmp_path / "BENCH_history"
        bench_history.append_record(history_dir, bench_json, commit="abc")
        text = bench_history.render_summary(bench_history.load_history(history_dir))
        assert "first recorded run" in text
        assert "pipelined_speedup" in text

    def test_delta_against_previous_run(self, bench_history, bench_json, tmp_path):
        history_dir = tmp_path / "BENCH_history"
        bench_history.append_record(history_dir, bench_json, commit="abc")
        # Second run: pipelined speedup regresses, serving improves.
        payload = json.loads(bench_json.read_text())
        payload["pipelined_training"]["speedup"] = 1.10
        payload["streaming_inference"]["backends"]["numpy"]["rows_per_second"] = 200000.0
        bench_json.write_text(json.dumps(payload))
        bench_history.append_record(history_dir, bench_json, commit="def")
        text = bench_history.render_summary(bench_history.load_history(history_dir))
        assert "| pipelined_speedup | 1.1 | 1.21 |" in text
        assert "🔴" in text  # the regression is flagged
        assert "🟢" in text  # the improvement is flagged
        assert "`def`" in text and "`abc`" in text

    def test_empty_history(self, bench_history):
        assert "No benchmark history" in bench_history.render_summary([])

    def test_cli_summary_writes_step_summary(
        self, bench_history, bench_json, tmp_path, monkeypatch, capsys
    ):
        history_dir = tmp_path / "BENCH_history"
        bench_history.append_record(history_dir, bench_json, commit="abc")
        summary_file = tmp_path / "step_summary.md"
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary_file))
        assert (
            bench_history.main(["summary", "--history-dir", str(history_dir)]) == 0
        )
        assert "Benchmark trajectory" in summary_file.read_text()
        assert "Benchmark trajectory" in capsys.readouterr().out
