"""Training bookkeeping: history records and callback hooks.

Callbacks are how StreamBrain's in-situ visualization attaches to the
training loop: the Catalyst adaptor (:mod:`repro.visualization.catalyst`) is
just a :class:`TrainingCallback` whose ``on_epoch_end`` co-processes the
current receptive fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

__all__ = ["EpochResult", "History", "TrainingCallback", "CallbackList"]


@dataclass
class EpochResult:
    """One epoch of one training phase."""

    phase: str
    layer_name: str
    epoch: int
    duration_seconds: float
    metrics: Dict[str, float] = field(default_factory=dict)


class History:
    """Accumulates :class:`EpochResult` records during a training run."""

    def __init__(self) -> None:
        self.records: List[EpochResult] = []

    def append(self, record: EpochResult) -> None:
        self.records.append(record)

    def last_metric(self, name: str, default: float = np.nan) -> float:
        for record in reversed(self.records):
            if name in record.metrics:
                return float(record.metrics[name])
        return default


class TrainingCallback:
    """Hook interface invoked by :class:`repro.core.network.Network`."""

    def on_train_begin(self, network) -> None:  # pragma: no cover - default no-op
        """Called once before any training phase starts."""

    def on_epoch_end(self, context: Dict[str, object]) -> None:  # pragma: no cover
        """Called after every epoch of every phase.

        ``context`` contains ``phase``, ``layer`` (the layer object),
        ``layer_name``, ``epoch``, ``network`` and ``metrics``.
        """

    def on_train_end(self, network) -> None:  # pragma: no cover - default no-op
        """Called once after all phases finish."""


class CallbackList(TrainingCallback):
    """Dispatch to an ordered list of callbacks."""

    def __init__(self, callbacks: Optional[List[TrainingCallback]] = None) -> None:
        self.callbacks = list(callbacks or [])

    def on_train_begin(self, network) -> None:
        for cb in self.callbacks:
            cb.on_train_begin(network)

    def on_epoch_end(self, context: Dict[str, object]) -> None:
        for cb in self.callbacks:
            cb.on_epoch_end(context)

    def on_train_end(self, network) -> None:
        for cb in self.callbacks:
            cb.on_train_end(network)
