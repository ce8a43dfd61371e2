"""The end-to-end Higgs pipeline shared by every experiment.

Steps (Section V of the paper): load the dataset, extract a balanced subset,
compute 10-quantiles per feature, one-hot encode, train the BCPNN hidden
layer unsupervised, train a classification head, evaluate accuracy/AUC and
training time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core import (
    BCPNNClassifier,
    InputSpec,
    Network,
    SGDClassifier,
    StructuralPlasticityLayer,
)
from repro.core.training import TrainingCallback
from repro.datasets import DatasetSplits, QuantileOneHotEncoder, make_higgs_splits
from repro.exceptions import ConfigurationError
from repro.experiments.config import HiggsExperimentConfig
from repro.utils.logging import get_logger
from repro.utils.rng import as_rng

logger = get_logger(__name__)

__all__ = [
    "HiggsData",
    "prepare_higgs_data",
    "build_higgs_network",
    "train_and_evaluate",
    "repeated_runs",
]


@dataclass
class HiggsData:
    """Encoded train/test matrices plus the fitted encoder and raw splits."""

    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    encoder: QuantileOneHotEncoder
    input_spec: InputSpec
    splits: DatasetSplits

    @property
    def n_train(self) -> int:
        return int(self.x_train.shape[0])

    @property
    def n_test(self) -> int:
        return int(self.x_test.shape[0])


def prepare_higgs_data(
    n_events: int = 8000,
    n_bins: int = 10,
    test_fraction: float = 0.2,
    seed=0,
    path: Optional[str] = None,
) -> HiggsData:
    """Load/generate HIGGS events and apply the paper's preprocessing."""
    splits = make_higgs_splits(
        n_samples=n_events, test_fraction=test_fraction, balanced=True, seed=seed, path=path
    )
    encoder = QuantileOneHotEncoder(n_bins=n_bins).fit(splits.train.features)
    x_train = encoder.transform(splits.train.features)
    x_test = encoder.transform(splits.test.features)
    return HiggsData(
        x_train=x_train,
        y_train=splits.train.labels,
        x_test=x_test,
        y_test=splits.test.labels,
        encoder=encoder,
        input_spec=InputSpec.from_encoder(encoder),
        splits=splits,
    )


def build_higgs_network(config: HiggsExperimentConfig, seed_offset: int = 0) -> Network:
    """Assemble the Network described by ``config`` (not yet trained).

    The backend named in the config is resolved once at the network level
    and threaded through every BCPNN layer, so the whole stack shares one
    backend instance (one thread pool / communicator) end-to-end.
    """
    rng = as_rng(config.seed + seed_offset)
    network = Network(
        seed=rng,
        name=f"higgs-{config.n_hypercolumns}x{config.n_minicolumns}-{config.head}",
        backend=config.backend,
    )
    network.add(
        StructuralPlasticityLayer(
            n_hypercolumns=config.n_hypercolumns,
            n_minicolumns=config.n_minicolumns,
            hyperparams=config.hyperparams(),
            seed=config.seed + seed_offset + 1,
        )
    )
    if config.head == "sgd":
        network.add(
            SGDClassifier(n_classes=2, learning_rate=0.05, seed=config.seed + seed_offset + 2)
        )
    else:
        network.add(BCPNNClassifier(n_classes=2))
    return network


def train_and_evaluate(
    config: HiggsExperimentConfig,
    data: Optional[HiggsData] = None,
    callbacks: Optional[List[TrainingCallback]] = None,
    seed_offset: int = 0,
    comm=None,
) -> Dict[str, object]:
    """Train one network and report accuracy, AUC and timing.

    Returns a dict with keys ``accuracy``, ``auc``, ``log_loss``,
    ``train_seconds``, ``train_accuracy``, ``network`` and ``config``.
    ``comm`` (a :class:`repro.comm.Communicator` or a transport spec string)
    switches hidden-layer training to the data-parallel path (see
    ``Network.fit``).
    """
    if data is None:
        data = prepare_higgs_data(
            n_events=config.n_events, n_bins=config.n_bins, seed=config.seed
        )
    network = build_higgs_network(config, seed_offset=seed_offset)
    start = time.perf_counter()
    history = network.fit(
        data.x_train,
        data.y_train,
        input_spec=data.input_spec,
        schedule=config.schedule(),
        callbacks=callbacks,
        comm=comm,
        checkpoint_dir=config.checkpoint_dir,
        checkpoint_every=config.checkpoint_every,
        checkpoint_keep=config.checkpoint_keep,
        resume=config.resume,
    )
    train_seconds = time.perf_counter() - start
    evaluation = network.evaluate(data.x_test, data.y_test)
    result: Dict[str, object] = {
        "accuracy": float(evaluation["accuracy"]),
        "auc": float(evaluation.get("auc", float("nan"))),
        "log_loss": float(evaluation["log_loss"]),
        "train_seconds": float(train_seconds),
        "train_accuracy": float(history.last_metric("train_accuracy")),
        "n_hypercolumns": config.n_hypercolumns,
        "n_minicolumns": config.n_minicolumns,
        "density": config.density,
        "head": config.head,
        "network": network,
        "config": config,
    }
    logger.info(
        "trained %s: accuracy=%.4f auc=%.4f (%.1fs)",
        network.name,
        result["accuracy"],
        result["auc"],
        train_seconds,
    )
    return result


def repeated_runs(
    config: HiggsExperimentConfig,
    repeats: int,
    data: Optional[HiggsData] = None,
) -> Dict[str, object]:
    """Run the same configuration ``repeats`` times and aggregate statistics.

    The paper reports the mean of 10 repetitions per configuration; this
    returns mean and standard deviation of accuracy / AUC / training time.
    """
    if repeats < 1:
        raise ConfigurationError("repeats must be at least 1")
    if data is None:
        data = prepare_higgs_data(n_events=config.n_events, n_bins=config.n_bins, seed=config.seed)
    accuracies, aucs, times = [], [], []
    for repeat in range(repeats):
        result = train_and_evaluate(config, data=data, seed_offset=97 * repeat)
        accuracies.append(result["accuracy"])
        aucs.append(result["auc"])
        times.append(result["train_seconds"])
    return {
        "config": config,
        "repeats": repeats,
        "accuracy_mean": float(np.mean(accuracies)),
        "accuracy_std": float(np.std(accuracies)),
        "auc_mean": float(np.nanmean(aucs)),
        "auc_std": float(np.nanstd(aucs)),
        "train_seconds_mean": float(np.mean(times)),
        "train_seconds_std": float(np.std(times)),
        "accuracies": [float(a) for a in accuracies],
        "aucs": [float(a) for a in aucs],
        "train_seconds": [float(t) for t in times],
    }
