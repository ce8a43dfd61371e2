"""The collective-throughput measurement behind ``repro benchmark --comm``."""

import json

import numpy as np
import pytest

from repro.cli import main_benchmark
from repro.comm import SerialComm, TCPComm, ThreadComm
from repro.comm.benchmark import E2E_PAYLOAD_FLOATS, allreduce_loop, measure_comm_throughput


@pytest.fixture(params=["serial", "thread", "tcp"])
def comm(request):
    if request.param == "serial":
        made = SerialComm()
    elif request.param == "thread":
        made = ThreadComm(2)
    else:
        made = TCPComm(2, timeout=60.0)
    try:
        yield made
    finally:
        made.close()


class TestAllreduceLoop:
    def test_every_rank_times_the_same_payload(self, comm):
        results = comm.run(allreduce_loop, [((4, 3), 5, 1)] * comm.size)
        assert [r["rank"] for r in results] == list(range(comm.size))
        for result in results:
            assert result["nbytes"] == 4 * 3 * 8
            assert 0 < result["seconds_per_call"] <= result["p50_seconds_per_call"]

    def test_payload_dtype_is_honoured(self):
        with SerialComm() as comm:
            [result] = comm.run(allreduce_loop, [((6,), 2, 0, "float32")])
        assert result["nbytes"] == 6 * 4


class TestMeasureCommThroughput:
    def test_rows_per_transport_and_e2e_payload(self):
        result = measure_comm_throughput(
            transports=("serial", "thread:2"), shape=(5, 3), repeats=3, warmup=1
        )
        rows = {row["transport"]: row for row in result["transports"]}
        assert rows["serial"]["ranks"] == 1 and rows["thread"]["ranks"] == 2
        for row in rows.values():
            assert row["payload_mbytes"] == pytest.approx(5 * 3 * 8 / 1e6)
            assert row["seconds_per_allreduce"] > 0
            assert row["mbytes_per_second"] > 0
        e2e = {(row["payload"], row["transport"]): row for row in result["e2e_payloads"]}
        assert set(e2e) == {(p, t) for p in E2E_PAYLOAD_FLOATS for t in ("serial", "thread")}
        for (payload, _), row in e2e.items():
            assert row["payload_mbytes"] == pytest.approx(E2E_PAYLOAD_FLOATS[payload] * 8 / 1e6)
        assert result["config"] == {"shape": [5, 3], "ranks": 2, "repeats": 3}

    def test_the_ranks_argument_sizes_a_spec_without_a_count(self):
        result = measure_comm_throughput(transports=("thread",), ranks=3, shape=(2,), repeats=2)
        assert result["transports"][0]["ranks"] == 3

    def test_repro_benchmark_reports_the_comm_table(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        argv = ["--batch", "16", "--inputs", "20", "--mcus", "5", "--hcus", "2", "--repeats", "1"]
        code = main_benchmark(argv + ["--comm", "thread:2", "--quiet", "--json", str(out)])
        assert code == 0
        assert "Comm transport allreduce throughput" in capsys.readouterr().out
        report = json.loads(out.read_text())
        [row] = report["comm_throughput"]["transports"]
        assert row["transport"] == "thread" and row["ranks"] == 2
        # The payload is the trace matrix one data-parallel batch reduces.
        assert row["payload_mbytes"] == pytest.approx((20 + 1) * 10 * 8 / 1e6)
        assert np.isfinite(row["mbytes_per_second"])
