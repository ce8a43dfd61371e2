"""Experiment E3 (Fig. 3): network capacity sweep.

Sweeps the number of hidden HCUs and MCUs-per-HCU at a fixed 30% receptive
field, measuring test accuracy and training time for each configuration —
the bars and lines of the paper's Figure 3.  The headline numbers of the
paper (69.15% accuracy / 76.4% AUC with the 1 HCU x 3000 MCU + SGD hybrid)
correspond to the largest single-HCU entry of this sweep with ``head="sgd"``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.config import ExperimentScale, HiggsExperimentConfig, get_scale
from repro.experiments.higgs_pipeline import HiggsData, prepare_higgs_data, repeated_runs
from repro.instrumentation.reports import format_table
from repro.utils.logging import get_logger

logger = get_logger(__name__)

__all__ = ["run_capacity_sweep"]


def run_capacity_sweep(
    scale: Optional[ExperimentScale] = None,
    hcu_values: Optional[Sequence[int]] = None,
    mcu_values: Optional[Sequence[int]] = None,
    density: float = 0.3,
    head: str = "sgd",
    repeats: Optional[int] = None,
    data: Optional[HiggsData] = None,
    seed: int = 0,
    backend: str = "numpy",
    pipeline: bool = False,
    weight_refresh_tol: float = 0.0,
) -> Dict[str, object]:
    """Run the HCU x MCU capacity sweep and return a result table.

    Returns a dict with ``rows`` (one per configuration: hcus, mcus, mean/std
    accuracy, AUC and training time), the rendered ``table`` string and the
    ``best`` row by mean accuracy.
    """
    scale = scale or get_scale()
    hcu_values = list(hcu_values if hcu_values is not None else scale.hcu_values)
    mcu_values = list(mcu_values if mcu_values is not None else scale.mcu_values)
    repeats = int(repeats if repeats is not None else scale.repeats)
    if data is None:
        data = prepare_higgs_data(n_events=scale.n_events, seed=seed)

    rows: List[Dict[str, object]] = []
    for mcus in mcu_values:
        for hcus in hcu_values:
            config = HiggsExperimentConfig(
                n_hypercolumns=int(hcus),
                n_minicolumns=int(mcus),
                density=density,
                head=head,
                n_events=scale.n_events,
                hidden_epochs=scale.hidden_epochs,
                classifier_epochs=scale.classifier_epochs,
                batch_size=scale.batch_size,
                backend=backend,
                seed=seed,
                pipeline=pipeline,
                weight_refresh_tol=weight_refresh_tol,
            )
            aggregate = repeated_runs(config, repeats=repeats, data=data)
            row = {
                "hcus": int(hcus),
                "mcus": int(mcus),
                "accuracy_mean": aggregate["accuracy_mean"],
                "accuracy_std": aggregate["accuracy_std"],
                "auc_mean": aggregate["auc_mean"],
                "train_seconds_mean": aggregate["train_seconds_mean"],
                "train_seconds_std": aggregate["train_seconds_std"],
            }
            rows.append(row)
            logger.info(
                "capacity sweep: H=%d M=%d accuracy=%.4f time=%.1fs",
                hcus, mcus, row["accuracy_mean"], row["train_seconds_mean"],
            )
    best = max(rows, key=lambda r: r["accuracy_mean"])
    table = format_table(
        rows,
        columns=[
            "mcus", "hcus", "accuracy_mean", "accuracy_std", "auc_mean",
            "train_seconds_mean", "train_seconds_std",
        ],
        title=(
            f"Fig. 3 reproduction: capacity sweep "
            f"(density={density:.0%}, head={head}, scale={scale.name})"
        ),
    )
    return {
        "experiment": "fig3_capacity",
        "scale": scale.name,
        "backend": backend,
        "density": density,
        "head": head,
        "repeats": repeats,
        "rows": rows,
        "best": best,
        "table": table,
    }
