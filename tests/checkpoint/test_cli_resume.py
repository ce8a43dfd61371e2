"""End-to-end chaos: kill the real CLI driver process, resume, compare models.

Unlike the in-process resume tests, these run ``python -m repro.cli train``
as a subprocess with the fault plan injected through the ``REPRO_FAULTS``
environment variable — exercising the exact path an operator uses: the
process dies with :data:`repro.faults.KILL_EXIT_CODE`, the rerun passes
``--resume``, and the saved model matches an uninterrupted run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.serialization import load_network
from repro.faults import KILL_EXIT_CODE

_SRC = Path(__file__).resolve().parents[2] / "src"

_TRAIN_ARGS = [
    "--mcus", "10", "--events", "1000", "--epochs", "2",
    "--seed", "0", "--quiet",
]


def _run_cli(args, env_extra=None, cwd=None):
    env = dict(os.environ)
    env.pop("REPRO_FAULTS", None)
    env.pop("REPRO_FAULTS_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [str(_SRC), env.get("PYTHONPATH", "")] if p
    )
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", "train", *args],
        env=env,
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_driver_kill_resume_matches_uninterrupted(tmp_path):
    base_model = tmp_path / "base.npz"
    resumed_model = tmp_path / "resumed.npz"
    ckpt_dir = tmp_path / "ckpt"

    baseline = _run_cli([*_TRAIN_ARGS, "--save-model", str(base_model)])
    assert baseline.returncode == 0, baseline.stderr

    killed = _run_cli(
        [*_TRAIN_ARGS, "--checkpoint-dir", str(ckpt_dir)],
        env_extra={"REPRO_FAULTS": "driver.kill@epoch=1"},
    )
    assert killed.returncode == KILL_EXIT_CODE, (killed.returncode, killed.stderr)
    assert ckpt_dir.is_dir() and any(ckpt_dir.glob("ckpt-*.npz"))

    resumed = _run_cli(
        [
            *_TRAIN_ARGS,
            "--checkpoint-dir", str(ckpt_dir),
            "--resume",
            "--save-model", str(resumed_model),
        ]
    )
    assert resumed.returncode == 0, resumed.stderr

    net_a = load_network(base_model)
    net_b = load_network(resumed_model)
    assert np.array_equal(net_a.head.weights, net_b.head.weights)
    la, lb = net_a.hidden_layers[0], net_b.hidden_layers[0]
    assert np.array_equal(la.traces.p_ij, lb.traces.p_ij)
    assert np.array_equal(la.plasticity.mask, lb.plasticity.mask)

    rng = np.random.default_rng(0)
    probe = rng.random((32, la.input_spec.n_units))
    assert np.array_equal(net_a.predict(probe), net_b.predict(probe))


def test_fault_env_is_inert_without_checkpointing_sites(tmp_path):
    """A plan naming sites the run never reaches does not perturb training."""
    model = tmp_path / "model.npz"
    result = _run_cli(
        [*_TRAIN_ARGS, "--save-model", str(model)],
        env_extra={"REPRO_FAULTS": "tcp.drop@count=1"},
    )
    assert result.returncode == 0, result.stderr
    assert model.is_file()


def _same_model(first, second):
    """Two ``--save-model`` files hold the same arrays, bit for bit."""
    with np.load(first) as a, np.load(second) as b:
        assert sorted(a.files) == sorted(b.files)
        for name in a.files:
            assert np.array_equal(a[name], b[name]), name


def _corrupt_latest(ckpt_dir: Path) -> Path:
    manifest = json.loads((ckpt_dir / "MANIFEST.json").read_text())
    latest = ckpt_dir / manifest["latest"]
    blob = bytearray(latest.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    latest.write_bytes(bytes(blob))
    return latest


def test_driver_kill_mid_layer_under_thread_ranks_resumes_bitwise(tmp_path):
    """The chaos job's second kill: data-parallel training dies at an epoch
    boundary and the resumed run saves the uninterrupted model."""
    args = [*_TRAIN_ARGS, "--comm", "thread:2"]
    ckpt_dir, never = tmp_path / "ckpt", tmp_path / "never-written.npz"
    base = _run_cli([*args, "--save-model", str(tmp_path / "base.npz")])
    assert base.returncode == 0, base.stderr
    killed = _run_cli(
        [*args, "--checkpoint-dir", str(ckpt_dir), "--save-model", str(never)],
        env_extra={"REPRO_FAULTS": "driver.kill@epoch=1"},
    )
    assert killed.returncode == KILL_EXIT_CODE, killed.stderr
    assert not never.exists()
    resumed = _run_cli(
        [*args, "--checkpoint-dir", str(ckpt_dir), "--resume"]
        + ["--save-model", str(tmp_path / "resumed.npz")]
    )
    assert resumed.returncode == 0, resumed.stderr
    _same_model(tmp_path / "base.npz", tmp_path / "resumed.npz")


@pytest.fixture
def killed_run(tmp_path):
    """A checkpoint directory left by a driver killed at the epoch-1 boundary."""
    ckpt_dir = tmp_path / "ckpt"
    killed = _run_cli(
        [*_TRAIN_ARGS, "--checkpoint-dir", str(ckpt_dir)],
        env_extra={"REPRO_FAULTS": "driver.kill@epoch=1"},
    )
    assert killed.returncode == KILL_EXIT_CODE, killed.stderr
    return ckpt_dir


def test_a_corrupt_checkpoint_fails_resume_naming_the_file(killed_run):
    latest = _corrupt_latest(killed_run)
    resumed = _run_cli([*_TRAIN_ARGS, "--checkpoint-dir", str(killed_run), "--resume"])
    assert resumed.returncode == 2
    assert "checksum mismatch" in resumed.stderr and latest.name in resumed.stderr
    assert "Traceback" not in resumed.stderr


def test_a_corrupt_read_fault_fails_resume_and_leaves_the_files(killed_run):
    before = {path.name: path.read_bytes() for path in killed_run.iterdir()}
    resumed = _run_cli(
        [*_TRAIN_ARGS, "--checkpoint-dir", str(killed_run), "--resume"],
        env_extra={"REPRO_FAULTS": "checkpoint.corrupt_read"},
    )
    assert resumed.returncode == 2
    assert "checksum mismatch" in resumed.stderr
    assert {path.name: path.read_bytes() for path in killed_run.iterdir()} == before
