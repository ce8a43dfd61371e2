"""Bitwise oracle for the competition kernel and the one-hot statistics.

This is the composition the training step ran before
:func:`repro.kernels.compete_into` existed, kept verbatim as the reference
the kernel is compared against with ``np.array_equal``: ``stable_log`` ->
``Generator.normal`` -> ``blockwise_softmax`` -> per-block cumulative-sum
pick into a dense one-hot matrix -> dense GEMM statistics.  Every step
allocates its result, nothing is fused, and the generator is consumed in the
order the reproducibility contract fixes (all normals of a batch, then its
uniforms).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.utils.arrays import block_offsets, blockwise_softmax, stable_log


def blockwise_sample(
    activations: np.ndarray, block_sizes: Sequence[int], rng: np.random.Generator
) -> np.ndarray:
    """Sample a winner per block according to the block's probabilities.

    Returns a dense one-hot matrix of the same shape as ``activations``.
    """
    activations = np.asarray(activations, dtype=np.float64)
    sizes = np.asarray(block_sizes, dtype=np.int64)
    offsets = block_offsets(sizes)
    n = activations.shape[0]
    out = np.zeros_like(activations)
    u = rng.random((n, sizes.shape[0]))
    for b in range(sizes.shape[0]):
        lo, hi = offsets[b], offsets[b + 1]
        block = activations[:, lo:hi]
        norm = block.sum(axis=1, keepdims=True)
        norm[norm <= 0.0] = 1.0
        cdf = np.cumsum(block / norm, axis=1)
        picks = (u[:, b : b + 1] > cdf).sum(axis=1)
        picks = np.minimum(picks, hi - lo - 1)
        out[np.arange(n), lo + picks] = 1.0
    return out


def training_activity(
    activations: np.ndarray,
    hidden_sizes: Sequence[int],
    mode: str,
    noise_scale: float,
    bias: Optional[np.ndarray],
    bias_delta: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """The competition rule as a chain of allocating steps (dense result)."""
    logits = stable_log(activations)
    if bias_delta != 0.0 and bias is not None:
        logits = logits + bias_delta * bias[None, :]
    if mode == "softmax":
        return blockwise_softmax(logits, hidden_sizes)
    if mode == "noisy_softmax":
        noisy = logits + rng.normal(0.0, noise_scale, size=logits.shape)
        return blockwise_softmax(noisy, hidden_sizes)
    if noise_scale > 0:
        logits = logits + rng.normal(0.0, 0.1 * noise_scale, size=logits.shape)
    probs = blockwise_softmax(logits, hidden_sizes)
    return blockwise_sample(probs, hidden_sizes, rng)


def batch_statistics(x: np.ndarray, a: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batch means and the co-activation matrix as one dense GEMM."""
    x = np.asarray(x, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    inv_b = 1.0 / x.shape[0]
    return np.mean(x, axis=0), np.mean(a, axis=0), (x.T @ a) * inv_b
