"""Every example script runs to completion and reports what its docstring promises.

The examples are product entry points (README points users at them); each
runs in a fresh interpreter, in a scratch directory, with ``TMPDIR`` there too
so nothing it writes outlives the test.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

#: script, its arguments, and a line fragment its output must hold.
EXAMPLES = [
    ("quickstart.py", [], "test AUC      ="),
    ("higgs_classification.py", [], "matches in-memory model: True"),
    ("distributed_training.py", [], "reproduce the serial traces on the thread transport"),
    ("distributed_training.py", ["--transport", "tcp"], "on the tcp transport"),
    ("hyperparameter_search.py", [], "trials recorded in"),
    ("insitu_visualization.py", ["out"], "VTI files"),
    ("mnist_receptive_fields.py", [], "mean central-mass gain"),
]


@pytest.mark.parametrize(
    "script, args, expected",
    EXAMPLES,
    ids=[" ".join([script[:-3], *args]) for script, args, _ in EXAMPLES],
)
def test_example_runs(tmp_path, script, args, expected):
    paths = [str(REPO_ROOT / "src")] + (
        [os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths), TMPDIR=str(tmp_path))
    done = subprocess.run(
        [sys.executable, str(REPO_ROOT / "examples" / script), *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert expected in done.stdout
