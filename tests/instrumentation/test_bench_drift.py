"""Unit tests for the committed-JSON drift gate in ``bench_kernels.py``.

``benchmarks/bench_kernels.py`` is a standalone script (the benchmarks tree
is not a package), so it is loaded by file path like the bench-history
tests do.
"""

import importlib.util
import json
from pathlib import Path

import pytest

MODULE_PATH = (
    Path(__file__).resolve().parent.parent.parent / "benchmarks" / "bench_kernels.py"
)


@pytest.fixture(scope="module")
def bench_kernels():
    spec = importlib.util.spec_from_file_location("bench_kernels_drift", MODULE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sections(fused=1.5, pipelined=1.2, sparse_train=1.6, sparse_serve=1.7):
    return {
        "fused_vs_unfused": {"speedup": fused},
        "pipelined_training": {"speedup": pipelined},
        "sparse_density_sweep": {
            "densities": [
                {
                    "density": 0.3,
                    "train_speedup": sparse_train,
                    "serving_speedup": sparse_serve,
                }
            ]
        },
    }


class TestCommittedDrift:
    def test_identical_metrics_pass(self, bench_kernels, tmp_path):
        committed = tmp_path / "committed.json"
        committed.write_text(json.dumps(_sections()))
        assert bench_kernels.check_committed_drift(_sections(), committed) == []

    def test_within_tolerance_passes(self, bench_kernels, tmp_path):
        committed = tmp_path / "committed.json"
        committed.write_text(json.dumps(_sections(fused=1.5)))
        fresh = _sections(fused=1.5 * 1.4)  # 40% above committed: inside ±50%
        assert bench_kernels.check_committed_drift(fresh, committed) == []

    def test_drift_beyond_tolerance_fails(self, bench_kernels, tmp_path):
        committed = tmp_path / "committed.json"
        committed.write_text(json.dumps(_sections(sparse_train=4.0)))
        failures = bench_kernels.check_committed_drift(_sections(), committed)
        assert any("sparse_density_sweep[0.3].train_speedup" in f for f in failures)

    def test_missing_committed_section_is_drift(self, bench_kernels, tmp_path):
        committed = tmp_path / "committed.json"
        stale = _sections()
        del stale["sparse_density_sweep"]
        committed.write_text(json.dumps(stale))
        failures = bench_kernels.check_committed_drift(_sections(), committed)
        assert any("missing from the committed JSON" in f for f in failures)

    def test_tolerance_is_configurable(self, bench_kernels, tmp_path):
        committed = tmp_path / "committed.json"
        committed.write_text(json.dumps(_sections(fused=1.5)))
        fresh = _sections(fused=1.8)  # 16.7% drift relative to fresh
        assert bench_kernels.check_committed_drift(fresh, committed, tolerance=0.5) == []
        failures = bench_kernels.check_committed_drift(fresh, committed, tolerance=0.1)
        assert any("fused_vs_unfused.speedup" in f for f in failures)

    def test_uint8_input_row_is_committed_and_tracked(self, bench_kernels):
        """Streaming from the stored ``uint8`` encoding is a gated ratio, not a claim."""
        committed = json.loads((MODULE_PATH.parent.parent / "BENCH_kernels.json").read_text())
        tracked = bench_kernels._committed_speedups(committed)
        assert tracked["streaming_inference.uint8_vs_float64_input"] > 0.9

    def test_committed_file_tracks_the_documented_default(self, bench_kernels):
        assert bench_kernels.COMMITTED_DRIFT_TOLERANCE == 0.5
