"""Write the fixture models ``tests/core/test_serialization.py`` reloads.

Usage: ``PYTHONPATH=<tree>/src python make_legacy_models.py <out dir>``.
Trains two tiny networks (SGD head, BCPNN head) on fixed one-hot rows with
the tree on ``PYTHONPATH``, saves them as ``legacy_sgd.npz`` /
``legacy_bcpnn.npz`` and records their predictions on those rows in
``legacy_expected.npz``.  Only public API both old and new trees share.
"""

import sys
from pathlib import Path

import numpy as np

from repro.core import (
    BCPNNClassifier,
    Network,
    SGDClassifier,
    StructuralPlasticityLayer,
    TrainingSchedule,
    save_network,
)


def main(out: Path) -> None:
    rng = np.random.default_rng(0)
    blocks = [3, 4]
    x = np.zeros((64, sum(blocks)), dtype=np.uint8)
    x[np.arange(64), rng.integers(0, 3, 64)] = 1
    x[np.arange(64), 3 + rng.integers(0, 4, 64)] = 1
    y = rng.integers(0, 2, 64)
    expected = {"x": x}
    heads = {"sgd": SGDClassifier(n_classes=2, seed=3), "bcpnn": BCPNNClassifier(n_classes=2)}
    for name, head in heads.items():
        net = Network(seed=1)
        net.add(StructuralPlasticityLayer(1, 4, density=0.5, seed=2))
        net.add(head)
        schedule = TrainingSchedule(hidden_epochs=2, classifier_epochs=2, batch_size=16)
        net.fit(x, y, input_spec=blocks, schedule=schedule)
        save_network(net, out / f"legacy_{name}.npz")
        expected[f"{name}_predict"] = net.predict(x)
        expected[f"{name}_proba"] = net.predict_proba(x)
    np.savez_compressed(out / "legacy_expected.npz", **expected)


if __name__ == "__main__":
    main(Path(sys.argv[1]))
