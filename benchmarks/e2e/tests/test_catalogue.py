"""The catalogue, ``BENCHMARK.json`` and the contract's limits agree exactly."""

import json
import re

import catalogue
import hostenv

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}")


def test_benchmark_json_is_the_catalogue():
    on_disk = json.loads((hostenv.REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert on_disk == catalogue.benchmark_manifest()


def test_manifest_meets_the_contract_limits():
    manifest = catalogue.benchmark_manifest()
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    assert isinstance(manifest["run_seconds"], int) and 1 <= manifest["run_seconds"] <= 60
    names = [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    names += [w["name"] for w in manifest["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    for metric in manifest["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]
    assert max(m["bound"] for m in manifest["end_to_end"]) == setup[0]["bound"]
    for workload in manifest["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert len(json.dumps(manifest)) <= 64 * 1024


def test_every_workload_has_its_config_file():
    for workload in catalogue.WORKLOADS:
        assert workload.config_path.is_file(), workload.config_path


def test_wide_workloads_are_the_same_problem():
    """`comm.parallel_efficiency` compares them, so only `training.comm` may differ."""
    from repro.config.loader import load_config_file

    serial = load_config_file(catalogue.workload("wide_serial").config_path)
    process2 = load_config_file(catalogue.workload("wide_process2").config_path)
    assert process2["training"].pop("comm") == "process:2"
    assert serial == process2
