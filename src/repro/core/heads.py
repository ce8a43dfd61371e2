"""Classification heads.

Two supervised output layers are provided, matching the two configurations
the paper reports:

* :class:`BCPNNClassifier` — a supervised BCPNN layer: a single output
  hypercolumn with one minicolumn per class, trained with the same local
  probability-trace rule using the one-hot label as the target activation
  (68.5% test accuracy in the paper's best configuration).
* :class:`SGDClassifier` — a multinomial logistic-regression head trained
  with mini-batch SGD on the frozen hidden representation; combining the
  unsupervised BCPNN features with this head is the paper's
  "BCPNN+SGD" hybrid (69.15% accuracy, 76.4% AUC).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro import kernels
from repro.core.execution import BackendExecutionMixin
from repro.core.layers import InputSpec
from repro.core.traces import ProbabilityTraces
from repro.exceptions import ConfigurationError, DataError, NotFittedError
from repro.utils.arrays import one_hot, row_softmax
from repro.utils.rng import as_rng, generator_state, set_generator_state
from repro.utils.validation import check_labels, check_positive_int

__all__ = ["BCPNNClassifier", "SGDClassifier"]


class BCPNNClassifier(BackendExecutionMixin):
    """Supervised BCPNN output layer (one hypercolumn of ``n_classes`` units)."""

    def __init__(
        self,
        n_classes: int,
        taupdt: float = 0.05,
        bias_gain: float = 1.0,
        trace_floor: float = 1e-12,
        backend=None,
        name: str = "bcpnn-head",
    ) -> None:
        self.n_classes = check_positive_int(n_classes, "n_classes", minimum=2)
        if not 0.0 < taupdt <= 1.0:
            raise ConfigurationError("taupdt must be in (0, 1]")
        if bias_gain < 0:
            raise ConfigurationError("bias_gain must be non-negative")
        self.taupdt = float(taupdt)
        self.bias_gain = float(bias_gain)
        self.trace_floor = float(trace_floor)
        self._init_execution(backend)
        self.name = name
        self.input_spec: Optional[InputSpec] = None
        self.traces: Optional[ProbabilityTraces] = None
        self.weights: Optional[np.ndarray] = None
        self.bias: Optional[np.ndarray] = None
        self._batches_trained = 0

    # ----------------------------------------------------------------- meta
    @property
    def _trace_floor(self) -> float:
        return self.trace_floor

    # ---------------------------------------------------------------- build
    def build(self, input_spec: InputSpec) -> "BCPNNClassifier":
        self.input_spec = input_spec
        self.traces = ProbabilityTraces(
            input_spec.hypercolumn_sizes, [self.n_classes]
        )
        self._batches_trained = 0
        self._reset_engine()
        self.refresh_weights()
        return self

    # -------------------------------------------------------------- training
    def train_batch(self, hidden: np.ndarray, labels: np.ndarray) -> None:
        """One supervised trace update from (hidden activations, labels).

        As in the hidden layer, the first batch re-anchors the trace prior to
        the observed marginals of the hidden representation so that the
        class-conditional weights are not diluted by a mismatched uniform
        prior.  The statistics + trace update run as one fused engine
        dispatch (no forward pass is needed — the training activity is the
        one-hot label).
        """
        self._require_built()
        hidden = self.input_spec.validate_batch(hidden)
        labels = check_labels(labels, self.n_classes, name="labels")
        if labels.shape[0] != hidden.shape[0]:
            raise DataError("hidden batch and labels are misaligned")
        targets = one_hot(labels, self.n_classes)
        if self._batches_trained == 0:
            self.traces.calibrate_marginals(mean_x=hidden.mean(axis=0))
            self.refresh_weights()
        engine = self.engine_for(hidden.shape[0])
        engine.update_traces(hidden, targets, self.traces, self.taupdt)
        self._batches_trained += 1
        # Stale-weights caching (see StructuralPlasticityLayer.train_batch):
        # refresh only once the accumulated trace drift exceeds the engine's
        # tolerance — unconditionally at the default tolerance of 0.
        if engine.should_refresh_weights():
            self.refresh_weights()

    # ------------------------------------------------------------ inference
    def decision_function(self, hidden: np.ndarray) -> np.ndarray:
        """Raw support values (log-probability ratios) per class."""
        self._require_built()
        hidden = self.input_spec.validate_batch(hidden)
        return kernels.classifier_support(hidden, self.weights, self.bias, self.bias_gain)

    def predict_proba(self, hidden: np.ndarray) -> np.ndarray:
        """Class probabilities (softmax over the single output hypercolumn)."""
        return row_softmax(self.decision_function(hidden))

    def predict(self, hidden: np.ndarray) -> np.ndarray:
        return np.argmax(self.decision_function(hidden), axis=1)

    # ----------------------------------------------------------------- state
    def state_dict(self, training: bool = False) -> Dict[str, object]:
        """The head's state codec; ``training=True`` adds the batch counter,
        which gates the first-batch marginal calibration."""
        self._require_built()
        state = {
            "kind": "BCPNNClassifier",
            "name": self.name,
            "n_classes": self.n_classes,
            "taupdt": self.taupdt,
            "bias_gain": self.bias_gain,
            "trace_floor": self.trace_floor,
            "input_sizes": list(self.input_spec.hypercolumn_sizes),
            "p_i": self.traces.p_i.copy(),
            "p_j": self.traces.p_j.copy(),
            "p_ij": self.traces.p_ij.copy(),
        }
        if training:
            state["batches_trained"] = self._batches_trained
        return state

    def load_state_dict(self, state: Dict[str, object]) -> None:
        self.taupdt = float(state["taupdt"])
        self.bias_gain = float(state["bias_gain"])
        self.trace_floor = float(state["trace_floor"])
        self.build(InputSpec([int(s) for s in state["input_sizes"]]))
        self.traces.p_i[:] = np.asarray(state["p_i"])
        self.traces.p_j[:] = np.asarray(state["p_j"])
        self.traces.p_ij[:] = np.asarray(state["p_ij"])
        self._batches_trained = int(state.get("batches_trained", 0))
        self.refresh_weights()


class SGDClassifier:
    """Multinomial logistic-regression head trained with mini-batch SGD.

    Supports momentum and L2 weight decay.  This is the "SGD" half of the
    paper's hybrid configuration and is also reused as the shallow linear
    baseline in the related-work benchmark.
    """

    def __init__(
        self,
        n_classes: int,
        learning_rate: float = 0.05,
        momentum: float = 0.9,
        weight_decay: float = 0.0,
        seed=None,
        name: str = "sgd-head",
    ) -> None:
        self.n_classes = check_positive_int(n_classes, "n_classes", minimum=2)
        if learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ConfigurationError("momentum must be in [0, 1)")
        if weight_decay < 0:
            raise ConfigurationError("weight_decay must be non-negative")
        self.learning_rate = float(learning_rate)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.name = name
        self._rng = as_rng(seed)
        self.input_spec: Optional[InputSpec] = None
        self.weights: Optional[np.ndarray] = None
        self.bias: Optional[np.ndarray] = None
        self._vel_w: Optional[np.ndarray] = None
        self._vel_b: Optional[np.ndarray] = None

    # ----------------------------------------------------------------- meta
    @property
    def is_built(self) -> bool:
        return self.weights is not None

    def _require_built(self) -> None:
        if not self.is_built:
            raise NotFittedError(f"classifier '{self.name}' has not been built")

    # ---------------------------------------------------------------- build
    def build(self, input_spec: InputSpec) -> "SGDClassifier":
        self.input_spec = input_spec
        n_in = input_spec.n_units
        limit = np.sqrt(6.0 / (n_in + self.n_classes))
        self.weights = self._rng.uniform(-limit, limit, size=(n_in, self.n_classes))
        self.bias = np.zeros(self.n_classes)
        self._vel_w = np.zeros_like(self.weights)
        self._vel_b = np.zeros_like(self.bias)
        return self

    # -------------------------------------------------------------- training
    def train_batch(
        self, hidden: np.ndarray, labels: np.ndarray, learning_rate: Optional[float] = None
    ) -> float:
        """One SGD step on the cross-entropy loss; returns the batch loss."""
        self._require_built()
        hidden = self.input_spec.validate_batch(hidden)
        labels = check_labels(labels, self.n_classes, name="labels")
        if labels.shape[0] != hidden.shape[0]:
            raise DataError("hidden batch and labels are misaligned")
        lr = self.learning_rate if learning_rate is None else float(learning_rate)
        batch = hidden.shape[0]
        logits = hidden @ self.weights + self.bias
        probs = row_softmax(logits)
        targets = one_hot(labels, self.n_classes)
        picked = np.clip(probs[np.arange(batch), labels], 1e-12, 1.0)
        loss = float(-np.mean(np.log(picked)))
        grad_logits = (probs - targets) / batch
        grad_w = hidden.T @ grad_logits + self.weight_decay * self.weights
        grad_b = grad_logits.sum(axis=0)
        self._vel_w = self.momentum * self._vel_w - lr * grad_w
        self._vel_b = self.momentum * self._vel_b - lr * grad_b
        self.weights += self._vel_w
        self.bias += self._vel_b
        return loss

    # ------------------------------------------------------------ inference
    def decision_function(self, hidden: np.ndarray) -> np.ndarray:
        self._require_built()
        hidden = self.input_spec.validate_batch(hidden)
        return hidden @ self.weights + self.bias

    def predict_proba(self, hidden: np.ndarray) -> np.ndarray:
        return row_softmax(self.decision_function(hidden))

    def predict(self, hidden: np.ndarray) -> np.ndarray:
        return np.argmax(self.decision_function(hidden), axis=1)

    # ----------------------------------------------------------------- state
    def state_dict(self, training: bool = False) -> Dict[str, object]:
        """The head's state codec; ``training=True`` adds the generator, the
        momentum velocities and the weights token."""
        self._require_built()
        state = {
            "kind": "SGDClassifier",
            "name": self.name,
            "n_classes": self.n_classes,
            "learning_rate": self.learning_rate,
            "momentum": self.momentum,
            "weight_decay": self.weight_decay,
            "input_sizes": list(self.input_spec.hypercolumn_sizes),
            "weights": self.weights.copy(),
            "bias": self.bias.copy(),
        }
        if training:
            state["rng"] = generator_state(self._rng)
            state["vel_w"] = self._vel_w.copy()
            state["vel_b"] = self._vel_b.copy()
        return state

    def load_state_dict(self, state: Dict[str, object]) -> None:
        self.learning_rate = float(state["learning_rate"])
        self.momentum = float(state["momentum"])
        self.weight_decay = float(state["weight_decay"])
        self.build(InputSpec([int(s) for s in state["input_sizes"]]))
        self.weights[:] = np.asarray(state["weights"])
        self.bias[:] = np.asarray(state["bias"])
        if "rng" in state:  # a training state: continue the step exactly
            set_generator_state(self._rng, state["rng"])
            self._vel_w[:] = np.asarray(state["vel_w"])
            self._vel_b[:] = np.asarray(state["vel_b"])
