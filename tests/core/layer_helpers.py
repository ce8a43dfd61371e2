"""Test-side views of a layer's traces and mask.

The product updates traces only through the engine's kernels and changes a
mask only through plasticity or a state load; these helpers give a test the
same learning-rule step on a bare traces object, the probabilistic
invariants a trained layer's traces must keep, and a mask swap through the
layer's state codec.
"""

from __future__ import annotations

import numpy as np

from repro import kernels


def ema_step(traces, x: np.ndarray, a: np.ndarray, taupdt: float) -> None:
    """One learning-rule step: ``p <- (1 - taupdt) * p + taupdt * batch_mean``."""
    mean_x, mean_a, mean_outer = kernels.batch_outer_product(x, a)
    kernels.ema_update(traces.p_i, traces.p_j, traces.p_ij, mean_x, mean_a, mean_outer, taupdt)
    traces.updates_seen += 1


def _block_sums(values: np.ndarray, sizes) -> list:
    bounds = np.cumsum([0] + list(sizes))
    return [float(values[lo:hi].sum()) for lo, hi in zip(bounds[:-1], bounds[1:])]


def traces_consistent(traces, atol: float = 1e-6) -> bool:
    """Whether the traces are per-hypercolumn probability distributions.

    * each input hypercolumn of ``p_i`` sums to ~1,
    * each hidden hypercolumn of ``p_j`` sums to ~1,
    * ``p_ij`` sums to the number of (input, hidden) hypercolumn pairs,
      because each pair contributes probability 1.
    """
    sums = _block_sums(traces.p_i, traces.input_sizes) + _block_sums(
        traces.p_j, traces.hidden_sizes
    )
    if not all(abs(s - 1.0) < 1e-3 for s in sums):
        return False
    expected = len(traces.input_sizes) * len(traces.hidden_sizes)
    return abs(float(traces.p_ij.sum()) - expected) < max(1e-2 * expected, atol)


def load_mask_density(layer, density: float, seed: int = 0) -> None:
    """Give a built layer a random mask of ``density`` through its state codec."""
    mask = layer.plasticity.mask
    n_inputs, n_hcus = mask.shape
    per_hcu = max(1, int(round(density * n_inputs)))
    rng = np.random.default_rng(seed)
    new = np.zeros_like(mask)
    for h in range(n_hcus):
        new[rng.choice(n_inputs, size=per_hcu, replace=False), h] = 1.0
    state = layer.state_dict()
    state["mask"] = new
    layer.load_state_dict(state)
