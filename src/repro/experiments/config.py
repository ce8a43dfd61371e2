"""Experiment scaling configuration.

The paper trains networks with up to 8 HCUs x 3000 MCUs on an NVIDIA A100
for minutes per run.  This reproduction runs on ordinary CPUs, so every
experiment has two scales:

* ``small`` (default) — sized so the complete benchmark suite finishes in a
  few minutes on a 2-core machine while preserving the sweep *structure*
  (same axes, same comparisons, scaled-down capacities and sample counts).
* ``full``  — the paper's configuration (1-8 HCUs, 30/300/3000 MCUs,
  receptive-field sweep in 5% steps, large event counts).  Select it by
  setting the environment variable ``REPRO_FULL=1``.

EXPERIMENTS.md records which scale produced the reported numbers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.core.hyperparams import BCPNNHyperParameters, TrainingSchedule
from repro.exceptions import ConfigurationError

__all__ = ["ExperimentScale", "HiggsExperimentConfig", "get_scale"]


@dataclass(frozen=True)
class ExperimentScale:
    """Sizes of the sweeps / datasets used by the experiment harness."""

    name: str
    n_events: int
    hidden_epochs: int
    classifier_epochs: int
    batch_size: int
    repeats: int
    hcu_values: Tuple[int, ...]
    mcu_values: Tuple[int, ...]
    density_values: Tuple[float, ...]
    baseline_epochs: int
    boosting_rounds: int

    def __post_init__(self) -> None:
        if self.n_events < 100:
            raise ConfigurationError("n_events must be at least 100")
        if self.repeats < 1:
            raise ConfigurationError("repeats must be at least 1")


SMALL_SCALE = ExperimentScale(
    name="small",
    n_events=8000,
    hidden_epochs=4,
    classifier_epochs=8,
    batch_size=128,
    repeats=2,
    hcu_values=(1, 2, 4),
    mcu_values=(10, 50, 150),
    density_values=(0.05, 0.1, 0.2, 0.3, 0.4, 0.6, 0.8, 1.0),
    baseline_epochs=15,
    boosting_rounds=60,
)

FULL_SCALE = ExperimentScale(
    name="full",
    n_events=200000,
    hidden_epochs=10,
    classifier_epochs=20,
    batch_size=256,
    repeats=10,
    hcu_values=(1, 2, 4, 6, 8),
    mcu_values=(30, 300, 3000),
    density_values=tuple(round(0.05 * i, 2) for i in range(0, 21)),
    baseline_epochs=40,
    boosting_rounds=200,
)


def get_scale(name: Optional[str] = None) -> ExperimentScale:
    """Resolve the experiment scale from an explicit name or ``REPRO_FULL``."""
    if name is None:
        full = os.environ.get("REPRO_FULL", "").strip() in ("1", "true", "yes")
        name = "full" if full else "small"
    name = name.lower()
    if name == "small":
        return SMALL_SCALE
    if name == "full":
        return FULL_SCALE
    raise ConfigurationError(f"unknown experiment scale '{name}' (use 'small' or 'full')")


@dataclass(frozen=True)
class HiggsExperimentConfig:
    """Complete configuration of one Higgs training run."""

    n_hypercolumns: int = 1
    n_minicolumns: int = 150
    density: float = 0.3
    head: str = "sgd"  # "sgd" (hybrid, paper's best) or "bcpnn"
    n_bins: int = 10
    n_events: int = 8000
    taupdt: float = 0.02
    hidden_epochs: int = 4
    classifier_epochs: int = 8
    batch_size: int = 128
    backend: str = "numpy"
    seed: int = 0
    #: Overlapped double-buffered hidden-phase training (identical results).
    pipeline: bool = False
    #: Stale-weights tolerance for the per-batch weight refresh (0 = exact).
    weight_refresh_tol: float = 0.0
    #: Recover from crashed ranks during comm training (tcp).
    fault_tolerance: bool = False
    #: Durable checkpoint directory for crash-safe training (None = off).
    checkpoint_dir: Optional[str] = None
    #: Save a checkpoint every N epoch boundaries (1 = every boundary).
    checkpoint_every: int = 1
    #: Keep the newest N checkpoints in the directory (older ones rotate out).
    checkpoint_keep: int = 3
    #: Resume from the latest checkpoint in ``checkpoint_dir``.
    resume: bool = False

    def __post_init__(self) -> None:
        if self.head not in ("sgd", "bcpnn"):
            raise ConfigurationError("head must be 'sgd' or 'bcpnn'")
        if not 0.0 <= self.density <= 1.0:
            raise ConfigurationError("density must be in [0, 1]")
        if self.weight_refresh_tol < 0:
            raise ConfigurationError("weight_refresh_tol must be non-negative")
        if self.checkpoint_every < 1:
            raise ConfigurationError("checkpoint_every must be at least 1")
        if self.checkpoint_keep < 1:
            raise ConfigurationError("checkpoint_keep must be at least 1")
        if self.resume and self.checkpoint_dir is None:
            raise ConfigurationError("resume=True requires checkpoint_dir")

    def replace(self, **overrides) -> "HiggsExperimentConfig":
        return replace(self, **overrides)

    def hyperparams(self) -> BCPNNHyperParameters:
        return BCPNNHyperParameters(taupdt=self.taupdt, density=self.density)

    def schedule(self) -> TrainingSchedule:
        return TrainingSchedule(
            hidden_epochs=self.hidden_epochs,
            classifier_epochs=self.classifier_epochs,
            batch_size=self.batch_size,
            pipeline=self.pipeline,
            weight_refresh_tol=self.weight_refresh_tol,
            fault_tolerance=self.fault_tolerance,
        )

    @classmethod
    def from_schema(cls, config) -> "HiggsExperimentConfig":
        """Build from a :class:`repro.config.schema.ExperimentConfig`.

        Duck-typed on the section attributes rather than importing
        ``repro.config`` (which imports this module), mapping every knob the
        declarative schema shares with this runtime config.  The config path
        of ``repro run`` and ``repro train`` (a flag spelling of the same
        schema) meet here.
        """
        model, dataset, training = config.model, config.dataset, config.training
        return cls(
            n_hypercolumns=model.n_hypercolumns,
            n_minicolumns=model.n_minicolumns,
            density=model.density,
            head=model.head,
            n_bins=dataset.n_bins,
            n_events=dataset.n_events,
            taupdt=model.taupdt,
            hidden_epochs=training.hidden_epochs,
            classifier_epochs=training.classifier_epochs,
            batch_size=training.batch_size,
            backend=training.backend,
            seed=config.seed,
            pipeline=training.pipeline,
            weight_refresh_tol=training.weight_refresh_tol,
            fault_tolerance=training.fault_tolerance,
            checkpoint_dir=training.checkpoint_dir,
            checkpoint_every=training.checkpoint_every,
            checkpoint_keep=training.checkpoint_keep,
            resume=training.resume,
        )

    @classmethod
    def from_scale(cls, scale: ExperimentScale, **overrides) -> "HiggsExperimentConfig":
        base = cls(
            n_events=scale.n_events,
            hidden_epochs=scale.hidden_epochs,
            classifier_epochs=scale.classifier_epochs,
            batch_size=scale.batch_size,
            n_minicolumns=max(scale.mcu_values),
        )
        return base.replace(**overrides) if overrides else base
