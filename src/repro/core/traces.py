"""Probability traces: the BCPNN learning-rule state.

A :class:`ProbabilityTraces` object owns the exponentially-weighted moving
averages ``p_i`` (input marginals), ``p_j`` (hidden marginals) and ``p_ij``
(joint co-activations).  The local learning rule is a single in-place update
per batch followed by a conversion to weights/biases — no gradients flow
backwards, which is the property that makes BCPNN attractive on HPC systems
(Section II-B of the paper): the batch statistics of independent shards sum,
so the data-parallel trainer reduces them with one allreduce per batch.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro import kernels
from repro.exceptions import DataError
from repro.utils.validation import check_positive_int

__all__ = ["ProbabilityTraces"]


class ProbabilityTraces:
    """Moving-average probability estimates for one BCPNN layer.

    Parameters
    ----------
    input_sizes:
        Sizes of the input hypercolumns (e.g. ``[10] * 28`` for the Higgs
        one-hot encoding).
    hidden_sizes:
        Sizes of the hidden hypercolumns (``[n_minicolumns] * n_hypercolumns``).
    initial_counts:
        Virtual sample count for the uniform prior initialisation.
    dtype:
        Storage dtype (the low-precision backend uses float32/float16).
    """

    def __init__(
        self,
        input_sizes: Sequence[int],
        hidden_sizes: Sequence[int],
        initial_counts: float = 10.0,
        dtype=np.float64,
    ) -> None:
        self.input_sizes = [check_positive_int(s, "input hypercolumn size") for s in input_sizes]
        self.hidden_sizes = [check_positive_int(s, "hidden hypercolumn size") for s in hidden_sizes]
        if initial_counts <= 0:
            raise DataError("initial_counts must be positive")
        self.initial_counts = float(initial_counts)
        self.dtype = np.dtype(dtype)
        self.n_input = int(np.sum(self.input_sizes))
        self.n_hidden = int(np.sum(self.hidden_sizes))
        self.p_i = np.empty(self.n_input, dtype=self.dtype)
        self.p_j = np.empty(self.n_hidden, dtype=self.dtype)
        self.p_ij = np.empty((self.n_input, self.n_hidden), dtype=self.dtype)
        self.updates_seen = 0
        self.reset()

    # ------------------------------------------------------------ lifecycle
    def reset(self) -> None:
        """Initialise traces to independent uniform distributions per hypercolumn."""
        p_i = np.concatenate([np.full(s, 1.0 / s) for s in self.input_sizes])
        p_j = np.concatenate([np.full(s, 1.0 / s) for s in self.hidden_sizes])
        self.p_i[:] = p_i
        self.p_j[:] = p_j
        self.p_ij[:] = np.outer(p_i, p_j)
        self.updates_seen = 0

    def copy(self) -> "ProbabilityTraces":
        clone = ProbabilityTraces(
            self.input_sizes, self.hidden_sizes, self.initial_counts, self.dtype
        )
        clone.p_i[:] = self.p_i
        clone.p_j[:] = self.p_j
        clone.p_ij[:] = self.p_ij
        clone.updates_seen = self.updates_seen
        return clone

    # ------------------------------------------------------------ calibration
    def calibrate_marginals(
        self,
        mean_x: np.ndarray = None,
        mean_a: np.ndarray = None,
        jitter: float = 0.0,
        rng: np.random.Generator = None,
    ) -> None:
        """Re-anchor the prior to observed marginals (keeps independence).

        The traces start from uniform per-hypercolumn marginals.  When the
        real input marginals are far from uniform (e.g. mostly-blank image
        pixels under complementary coding), the residual prior biases the
        mutual-information scores used by structural plasticity, because a
        mixture of two *different* product distributions is not itself a
        product.  Calling this with the first batch's input marginal replaces
        the prior with a product distribution whose factors match the data,
        which removes that bias while keeping the Laplace-style smoothing
        (weights remain zero until genuine co-activation statistics arrive).

        Parameters
        ----------
        mean_x, mean_a:
            Observed marginals to adopt (``None`` keeps the current one).
        jitter:
            Optional multiplicative noise amplitude applied to the joint
            trace to break the symmetry between minicolumns.
        rng:
            Generator used for the jitter (required when ``jitter > 0``).
        """
        if mean_x is not None:
            mean_x = np.asarray(mean_x, dtype=np.float64)
            if mean_x.shape != (self.n_input,):
                raise DataError("mean_x shape does not match the number of input units")
            self.p_i[:] = np.maximum(mean_x, 1e-9)
        if mean_a is not None:
            mean_a = np.asarray(mean_a, dtype=np.float64)
            if mean_a.shape != (self.n_hidden,):
                raise DataError("mean_a shape does not match the number of hidden units")
            self.p_j[:] = np.maximum(mean_a, 1e-9)
        self.p_ij[:] = np.outer(self.p_i, self.p_j)
        if jitter:
            if rng is None:
                raise DataError("a rng is required when jitter > 0")
            self.p_ij *= rng.uniform(1.0 - jitter, 1.0 + jitter, size=self.p_ij.shape)

    # --------------------------------------------------------------- update
    def update(self, x: np.ndarray, a: np.ndarray, taupdt: float) -> None:
        """One learning-rule step from a batch of (input, hidden) activations.

        ``p <- (1 - taupdt) * p + taupdt * batch_mean``, in place, through
        the kernels every backend uses (``a`` may be an ``OneHotActivity``).
        """
        mean_x, mean_a, mean_outer = kernels.batch_outer_product(x, a)
        kernels.ema_update(self.p_i, self.p_j, self.p_ij, mean_x, mean_a, mean_outer, taupdt)
        self.updates_seen += 1

    # ------------------------------------------------------------- weights
    def to_weights(self, trace_floor: float = 1e-12) -> Tuple[np.ndarray, np.ndarray]:
        """Convert the current traces into ``(weights, bias)``."""
        return kernels.traces_to_weights(self.p_i, self.p_j, self.p_ij, trace_floor)

    def mutual_information(self, trace_floor: float = 1e-12) -> np.ndarray:
        """Hypercolumn-level mutual information matrix ``(F, H)``."""
        return kernels.mutual_information_scores(
            self.p_i, self.p_j, self.p_ij, self.input_sizes, self.hidden_sizes, trace_floor
        )

    # ---------------------------------------------------------- diagnostics
    def check_consistency(self, atol: float = 1e-6) -> bool:
        """Verify the probabilistic invariants of the traces.

        * each input hypercolumn of ``p_i`` sums to ~1,
        * each hidden hypercolumn of ``p_j`` sums to ~1,
        * summing ``p_ij`` over one side recovers (approximately) the
          marginal of the other side times the number of hypercolumns on the
          summed side (because each hypercolumn contributes probability 1).
        """
        sums_i = [
            float(np.sum(self.p_i[lo:hi]))
            for lo, hi in zip(
                np.concatenate([[0], np.cumsum(self.input_sizes)])[:-1],
                np.cumsum(self.input_sizes),
            )
        ]
        sums_j = [
            float(np.sum(self.p_j[lo:hi]))
            for lo, hi in zip(
                np.concatenate([[0], np.cumsum(self.hidden_sizes)])[:-1],
                np.cumsum(self.hidden_sizes),
            )
        ]
        if not all(abs(s - 1.0) < 1e-3 for s in sums_i):
            return False
        if not all(abs(s - 1.0) < 1e-3 for s in sums_j):
            return False
        total = float(self.p_ij.sum())
        expected = len(self.input_sizes) * len(self.hidden_sizes)
        return abs(total - expected) < max(1e-2 * expected, atol)

    def memory_bytes(self) -> int:
        """Bytes consumed by the trace arrays (used in cost reports)."""
        return int(self.p_i.nbytes + self.p_j.nbytes + self.p_ij.nbytes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ProbabilityTraces(n_input={self.n_input}, n_hidden={self.n_hidden}, "
            f"updates_seen={self.updates_seen})"
        )
