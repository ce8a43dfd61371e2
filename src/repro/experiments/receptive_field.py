"""Experiments E4/E5 (Fig. 4 and Fig. 5): receptive-field sweep.

A single-HCU network of fixed capacity is trained with receptive-field
densities from 0% to 100%.  Figure 4 plots accuracy (peaking near 40% in the
paper at 68.58%) against a nearly flat training time; Figure 5 shows the
masks chosen at each density.  Both come from the same sweep, so one
function produces both artefacts: accuracy/time rows and mask snapshots.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.experiments.config import ExperimentScale, HiggsExperimentConfig, get_scale
from repro.experiments.higgs_pipeline import (
    HiggsData,
    prepare_higgs_data,
    repeated_runs,
    train_and_evaluate,
)
from repro.instrumentation.reports import format_table
from repro.utils.logging import get_logger

logger = get_logger(__name__)

__all__ = ["run_receptive_field_sweep"]


def run_receptive_field_sweep(
    scale: Optional[ExperimentScale] = None,
    density_values: Optional[Sequence[float]] = None,
    n_minicolumns: Optional[int] = None,
    head: str = "sgd",
    repeats: Optional[int] = None,
    data: Optional[HiggsData] = None,
    seed: int = 0,
    collect_masks: bool = True,
    backend: str = "numpy",
    pipeline: bool = False,
    weight_refresh_tol: float = 0.0,
) -> Dict[str, object]:
    """Sweep the receptive-field density of a single-HCU network.

    Returns ``rows`` (density, accuracy, AUC, training time), ``masks`` (one
    representative (H, F) mask matrix per density, for the Fig. 5 panel),
    ``best`` (the peak-accuracy row) and a rendered ``table``.
    """
    scale = scale or get_scale()
    density_values = list(density_values if density_values is not None else scale.density_values)
    n_minicolumns = int(n_minicolumns if n_minicolumns is not None else max(scale.mcu_values))
    repeats = int(repeats if repeats is not None else scale.repeats)
    if data is None:
        data = prepare_higgs_data(n_events=scale.n_events, seed=seed)

    rows: List[Dict[str, object]] = []
    masks: Dict[float, np.ndarray] = {}
    for density in density_values:
        config = HiggsExperimentConfig(
            n_hypercolumns=1,
            n_minicolumns=n_minicolumns,
            density=float(density),
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
        rows.append(
            {
                "density": float(density),
                "accuracy_mean": aggregate["accuracy_mean"],
                "accuracy_std": aggregate["accuracy_std"],
                "auc_mean": aggregate["auc_mean"],
                "train_seconds_mean": aggregate["train_seconds_mean"],
            }
        )
        if collect_masks:
            # One extra run to capture the trained mask for the Fig. 5 panel.
            single = train_and_evaluate(config, data=data, seed_offset=1)
            network = single["network"]
            masks[float(density)] = network.receptive_field_masks()[0]
        logger.info(
            "receptive-field sweep: density=%.2f accuracy=%.4f time=%.1fs",
            density, rows[-1]["accuracy_mean"], rows[-1]["train_seconds_mean"],
        )

    best = max(rows, key=lambda r: r["accuracy_mean"])
    table = format_table(
        rows,
        columns=["density", "accuracy_mean", "accuracy_std", "auc_mean", "train_seconds_mean"],
        title=(
            f"Fig. 4 reproduction: receptive-field sweep "
            f"(1 HCU x {n_minicolumns} MCUs, head={head}, scale={scale.name})"
        ),
    )
    return {
        "experiment": "fig4_fig5_receptive_field",
        "scale": scale.name,
        "backend": backend,
        "n_minicolumns": n_minicolumns,
        "head": head,
        "repeats": repeats,
        "rows": rows,
        "masks": masks,
        "best": best,
        "table": table,
    }
