"""Experiment E6 (Section VI): related-work comparison on the same split.

The paper compares BCPNN's AUC (75.5% pure / 76.4% hybrid) against the
literature values for boosted decision trees, shallow neural networks
(~81.6% AUC) and deep neural networks (~88% AUC) on the real HIGGS dataset.
Here all methods are trained on the *same* (synthetic unless the real file
is present) split so the ordering can be checked like-for-like.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Optional

from repro.baselines import (
    GradientBoostingBaseline,
    LogisticRegressionBaseline,
    MLPBaseline,
)
from repro.datasets.preprocessing import Standardizer
from repro.experiments.config import ExperimentScale, HiggsExperimentConfig, get_scale
from repro.experiments.higgs_pipeline import HiggsData, prepare_higgs_data, train_and_evaluate
from repro.instrumentation.reports import format_comparison
from repro.utils.logging import get_logger

logger = get_logger(__name__)

__all__ = ["run_related_work_comparison"]

#: AUC values quoted in the paper's Section VI for the real 11M-event dataset.
PAPER_REFERENCE_AUC = {
    "bcpnn": 0.755,
    "bcpnn+sgd": 0.764,
    "shallow-nn": 0.816,
    "deep-nn": 0.88,
}


def run_related_work_comparison(
    scale: Optional[ExperimentScale] = None,
    data: Optional[HiggsData] = None,
    seed: int = 0,
    include_deep: bool = True,
    backend: str = "numpy",
    pipeline: bool = False,
    weight_refresh_tol: float = 0.0,
) -> Dict[str, object]:
    """Train BCPNN (both heads) and the baselines on one split.

    Returns ``results`` ({method: {accuracy, auc, train_seconds}}), the
    rendered ``table``, and ``paper_reference`` for side-by-side reporting.
    """
    scale = scale or get_scale()
    if data is None:
        data = prepare_higgs_data(n_events=scale.n_events, seed=seed)

    results: Dict[str, Dict[str, float]] = {}

    # ---------------------------------------------------------------- BCPNN
    for head, label in (("bcpnn", "bcpnn"), ("sgd", "bcpnn+sgd")):
        config = HiggsExperimentConfig.from_scale(
            scale,
            head=head,
            density=0.4,
            seed=seed,
            backend=backend,
            pipeline=pipeline,
            weight_refresh_tol=weight_refresh_tol,
        )
        outcome = train_and_evaluate(config, data=data)
        results[label] = {
            "accuracy": outcome["accuracy"],
            "auc": outcome["auc"],
            "train_seconds": outcome["train_seconds"],
        }

    # ------------------------------------------------------------ baselines
    scaler = Standardizer().fit(data.splits.train.features)
    x_train_raw = scaler.transform(data.splits.train.features)
    x_test_raw = scaler.transform(data.splits.test.features)
    y_train, y_test = data.y_train, data.y_test

    baselines = {
        "logistic-regression": LogisticRegressionBaseline(
            epochs=scale.baseline_epochs, seed=seed
        ),
        "shallow-nn": MLPBaseline(
            hidden_layers=(100,), epochs=scale.baseline_epochs, seed=seed
        ),
        "boosted-trees": GradientBoostingBaseline(
            n_estimators=scale.boosting_rounds, max_depth=4, seed=seed,
            early_stopping_rounds=15,
        ),
    }
    if include_deep:
        baselines["deep-nn"] = MLPBaseline(
            hidden_layers=(100, 100, 100), epochs=scale.baseline_epochs, seed=seed
        )

    for name, model in baselines.items():
        start = perf_counter()
        model.fit(x_train_raw, y_train)
        train_seconds = perf_counter() - start
        evaluation = model.evaluate(x_test_raw, y_test)
        results[name] = {
            "accuracy": evaluation["accuracy"],
            "auc": evaluation.get("auc", float("nan")),
            "train_seconds": train_seconds,
        }
        logger.info(
            "baseline %s: accuracy=%.4f auc=%.4f",
            name,
            evaluation["accuracy"],
            evaluation.get("auc", float("nan")),
        )

    table = format_comparison(
        results,
        metrics=["accuracy", "auc", "train_seconds"],
        title=f"Section VI reproduction: related-work comparison (scale={scale.name})",
    )
    return {
        "experiment": "related_work",
        "scale": scale.name,
        "backend": backend,
        "results": results,
        "paper_reference_auc": dict(PAPER_REFERENCE_AUC),
        "table": table,
    }
