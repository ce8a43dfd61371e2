"""``repro train --comm`` through the real CLI, as ci.yml's comm smokes run it.

Each run is a fresh interpreter, so ``process:2`` and ``tcp`` ranks are real
spawned processes and ``REPRO_FAULTS`` reaches them through the environment.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

_SRC = Path(__file__).resolve().parents[2] / "src"
TRAIN = ["--events", "4000", "--epochs", "2", "--mcus", "50", "--quiet"]


def _train(args, tmp_path, faults=None):
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_FAULTS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_SRC), env.get("PYTHONPATH")]))
    if faults:
        env["REPRO_FAULTS"] = faults
    done = subprocess.run(
        [sys.executable, "-m", "repro.cli", "train", *TRAIN, *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    [line] = [line for line in done.stdout.splitlines() if "accuracy=" in line]
    return line


def _metrics(line):
    """The metrics line without the wall time and the transport name."""
    return re.sub(r"train_time=\S+", "", re.sub(r" \([a-z]+\)$", "", line))


def _auc(line):
    return float(re.search(r"auc=([0-9.]+)", line).group(1))


def _same_model(first, second):
    with np.load(first) as a, np.load(second) as b:
        assert sorted(a.files) == sorted(b.files)
        for name in a.files:
            assert np.array_equal(a[name], b[name]), name


@pytest.mark.parametrize(
    "extra",
    [[], ["--pipeline", "--weight-refresh-tol", "0.02"], ["--density", "0.3"]],
    ids=["plain", "pipelined", "sparse"],
)
def test_process_ranks_learn(tmp_path, extra):
    # A training that learned nothing prints auc=0.5.
    line = _train(["--comm", "process:2", *extra], tmp_path)
    assert "ranks=2 (tcp)" in line
    assert _auc(line) >= 0.60


def test_threads_and_processes_train_the_same_model(tmp_path):
    threads = _train(["--comm", "thread:2", "--save-model", "thread.npz"], tmp_path)
    processes = _train(["--comm", "process:2", "--save-model", "process.npz"], tmp_path)
    assert _metrics(threads) == _metrics(processes)
    _same_model(tmp_path / "thread.npz", tmp_path / "process.npz")


def test_a_crashed_tcp_worker_is_invisible(tmp_path):
    spec = ["--comm", "tcp?ranks=3&timeout=15"]
    plain = _train([*spec, "--save-model", "plain.npz"], tmp_path)
    crashed = _train(
        [*spec, "--save-model", "crashed.npz"],
        tmp_path,
        faults="worker.crash@rank=1,epoch=1,batch=2",
    )
    assert _metrics(plain) == _metrics(crashed)
    _same_model(tmp_path / "plain.npz", tmp_path / "crashed.npz")
