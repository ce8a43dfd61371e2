"""Multi-layer perceptrons with backpropagation (shallow and deep baselines).

Baldi et al. trained a one-hidden-layer network ("shallow NN", ~81.6% AUC on
the real HIGGS set) and a five-hidden-layer network ("DNN", ~88% AUC).
:class:`MLPBaseline` reproduces both shapes depending on ``hidden_layers``.
The implementation is plain NumPy: dense layers, ReLU activations,
softmax cross-entropy loss, mini-batch SGD with momentum, optional dropout.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.base import BaselineClassifier
from repro.exceptions import ConfigurationError
from repro.utils.arrays import one_hot, row_softmax
from repro.utils.rng import as_rng

__all__ = ["MLPBaseline", "relu", "relu_grad"]


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear activation."""
    return np.maximum(x, 0.0)


def relu_grad(pre: np.ndarray) -> np.ndarray:
    """Derivative of ReLU with respect to its pre-activation."""
    return (pre > 0).astype(np.float64)


class MLPBaseline(BaselineClassifier):
    """Fully-connected feed-forward classifier trained with backprop.

    Parameters
    ----------
    hidden_layers:
        Sizes of the hidden layers, e.g. ``(300,)`` for the shallow baseline
        or ``(300, 300, 300, 300, 300)`` for the deep one.
    dropout:
        Dropout probability applied to hidden activations during training.
    epochs, batch_size, learning_rate, momentum, weight_decay:
        Mini-batch SGD hyper-parameters; the learning rate decays as 1/(1+kt).
    """

    name = "mlp"

    def __init__(
        self,
        hidden_layers: Sequence[int] = (300,),
        dropout: float = 0.0,
        epochs: int = 30,
        batch_size: int = 128,
        learning_rate: float = 0.05,
        momentum: float = 0.9,
        weight_decay: float = 1e-4,
        seed=None,
    ) -> None:
        super().__init__()
        hidden_layers = tuple(int(h) for h in hidden_layers)
        if not hidden_layers or any(h <= 0 for h in hidden_layers):
            raise ConfigurationError("hidden_layers must be a non-empty tuple of positive ints")
        if not 0.0 <= dropout < 1.0:
            raise ConfigurationError("dropout must be in [0, 1)")
        if epochs <= 0 or batch_size <= 0 or learning_rate <= 0:
            raise ConfigurationError("epochs, batch_size and learning_rate must be positive")
        if not 0 <= momentum < 1 or weight_decay < 0:
            raise ConfigurationError("invalid momentum or weight_decay")
        self.hidden_layers = hidden_layers
        self.dropout = float(dropout)
        self.epochs = int(epochs)
        self.batch_size = int(batch_size)
        self.learning_rate = float(learning_rate)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self._rng = as_rng(seed)
        self.weights_: List[np.ndarray] = []
        self.biases_: List[np.ndarray] = []
        self.name = f"mlp-{len(hidden_layers)}x{hidden_layers[0]}"

    # --------------------------------------------------------------- fitting
    def _init_parameters(self, n_features: int) -> None:
        sizes = [n_features, *self.hidden_layers, self.n_classes_]
        self.weights_ = []
        self.biases_ = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            self.weights_.append(self._rng.uniform(-limit, limit, size=(fan_in, fan_out)))
            self.biases_.append(np.zeros(fan_out))

    def _forward(
        self, X: np.ndarray, training: bool
    ) -> Tuple[np.ndarray, List[np.ndarray], List[np.ndarray], List[Optional[np.ndarray]]]:
        pre_list: List[np.ndarray] = []
        post_list: List[np.ndarray] = [X]
        drop_masks: List[Optional[np.ndarray]] = []
        h = X
        for layer in range(len(self.weights_) - 1):
            pre = h @ self.weights_[layer] + self.biases_[layer]
            post = relu(pre)
            mask = None
            if training and self.dropout > 0:
                mask = (self._rng.random(post.shape) >= self.dropout) / (1.0 - self.dropout)
                post = post * mask
            pre_list.append(pre)
            post_list.append(post)
            drop_masks.append(mask)
            h = post
        logits = h @ self.weights_[-1] + self.biases_[-1]
        return logits, pre_list, post_list, drop_masks

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        self._init_parameters(X.shape[1])
        targets = one_hot(y, self.n_classes_)
        vel_w = [np.zeros_like(w) for w in self.weights_]
        vel_b = [np.zeros_like(b) for b in self.biases_]
        n = X.shape[0]
        for epoch in range(self.epochs):
            order = self._rng.permutation(n)
            lr = self.learning_rate / (1.0 + 0.05 * epoch)
            for start in range(0, n, self.batch_size):
                idx = order[start : start + self.batch_size]
                xb, tb = X[idx], targets[idx]
                logits, pre_list, post_list, drop_masks = self._forward(xb, training=True)
                probs = row_softmax(logits)
                delta = (probs - tb) / xb.shape[0]
                # Backward pass.
                grads_w = [None] * len(self.weights_)
                grads_b = [None] * len(self.biases_)
                grads_w[-1] = post_list[-1].T @ delta + self.weight_decay * self.weights_[-1]
                grads_b[-1] = delta.sum(axis=0)
                upstream = delta @ self.weights_[-1].T
                for layer in range(len(self.weights_) - 2, -1, -1):
                    if drop_masks[layer] is not None:
                        upstream = upstream * drop_masks[layer]
                    local = upstream * relu_grad(pre_list[layer])
                    grads_w[layer] = (
                        post_list[layer].T @ local + self.weight_decay * self.weights_[layer]
                    )
                    grads_b[layer] = local.sum(axis=0)
                    if layer > 0:
                        upstream = local @ self.weights_[layer].T
                # SGD with momentum.
                for layer in range(len(self.weights_)):
                    vel_w[layer] = self.momentum * vel_w[layer] - lr * grads_w[layer]
                    vel_b[layer] = self.momentum * vel_b[layer] - lr * grads_b[layer]
                    self.weights_[layer] += vel_w[layer]
                    self.biases_[layer] += vel_b[layer]

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        logits, _, _, _ = self._forward(X, training=False)
        return row_softmax(logits)
