"""``tools/check_smoke.py``: the CI smoke assertions must fail when they should."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[2]


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_smoke", REPO_ROOT / "tools" / "check_smoke.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("check_smoke", module)
    spec.loader.exec_module(module)
    return module


LINE = "[higgs] accuracy=0.6244  auc={auc}  log_loss=0.6811  train_time=0.3s\n"


def test_auc_gate(tmp_path):
    checker = _load_checker()
    good, flat, empty = tmp_path / "good.txt", tmp_path / "flat.txt", tmp_path / "empty.txt"
    good.write_text("saved model to m.npz\n" + LINE.format(auc="0.6663"))
    flat.write_text(LINE.format(auc="0.5000"))
    empty.write_text("saved model to m.npz\n")
    assert checker.main(["auc", "--min", "0.60", str(good)]) == 0
    assert checker.main(["auc", "--min", "0.60", str(good), str(flat)]) == 1
    assert checker.main(["auc", "--min", "0.60", str(empty)]) == 1


def test_same_model_gate(tmp_path):
    checker = _load_checker()
    arrays = {"w": np.arange(6.0).reshape(2, 3), "b": np.zeros(3)}
    np.savez(tmp_path / "a.npz", **arrays)
    np.savez(tmp_path / "b.npz", **arrays)
    np.savez(tmp_path / "c.npz", w=arrays["w"], b=np.full(3, 1e-300))
    np.savez(tmp_path / "d.npz", w=arrays["w"])
    a, b, c, d = (str(tmp_path / f"{n}.npz") for n in "abcd")
    assert checker.main(["same-model", a, b]) == 0
    assert checker.main(["same-model", a, c]) == 1
    assert checker.main(["same-model", a, d]) == 1
