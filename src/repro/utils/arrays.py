"""Vectorised array primitives shared by kernels, layers and baselines.

All hot-path helpers here follow the HPC-Python guidance used throughout the
project: no Python loops over samples, contiguous arrays, in-place updates
where the caller owns the buffer, and use of BLAS-backed matmul for anything
quadratic.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Sequence, Tuple

import numpy as np

from repro.exceptions import DataError

__all__ = [
    "one_hot",
    "row_softmax",
    "blockwise_softmax",
    "stable_log",
    "block_offsets",
    "block_layout",
]

#: Numerical floor used before taking logarithms of probability traces.
EPS = 1e-12


def one_hot(labels: np.ndarray, n_classes: int, dtype=np.float64) -> np.ndarray:
    """Encode integer labels as a dense one-hot matrix.

    Parameters
    ----------
    labels:
        Integer vector of shape ``(n,)`` with values in ``[0, n_classes)``.
    n_classes:
        Number of classes / columns of the output.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise DataError(f"labels must be 1-D, got shape {labels.shape}")
    if n_classes <= 0:
        raise DataError("n_classes must be positive")
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise DataError(
            f"labels must lie in [0, {n_classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    out = np.zeros((labels.shape[0], n_classes), dtype=dtype)
    if labels.size:
        out[np.arange(labels.shape[0]), labels.astype(np.int64)] = 1.0
    return out


def row_softmax(logits: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """Numerically-stable softmax along the last axis."""
    logits = np.asarray(logits, dtype=np.float64)
    # `shifted` is always a fresh buffer, so exponentiate it in place.
    shifted = logits - logits.max(axis=-1, keepdims=True)
    np.exp(shifted, out=shifted)
    denom = shifted.sum(axis=-1, keepdims=True)
    if out is None:
        return shifted / denom
    np.divide(shifted, denom, out=out)
    return out


def block_offsets(block_sizes: Sequence[int]) -> np.ndarray:
    """Return cumulative offsets ``[0, s0, s0+s1, ...]`` for block layouts."""
    sizes = np.asarray(block_sizes, dtype=np.int64)
    if sizes.ndim != 1 or sizes.size == 0 or np.any(sizes <= 0):
        raise DataError("block_sizes must be a non-empty sequence of positive ints")
    return np.concatenate([[0], np.cumsum(sizes)])


@lru_cache(maxsize=64)
def block_layout(block_sizes: Tuple[int, ...]) -> Tuple[np.ndarray, np.ndarray, bool]:
    """Cached ``(starts, stops, all sizes equal)`` of a block layout (read-only)."""
    offsets = block_offsets(block_sizes)
    offsets.flags.writeable = False
    starts, stops = offsets[:-1], offsets[1:]
    return starts, stops, bool(np.all(stops - starts == stops[0]))


def blockwise_softmax(
    support: np.ndarray, block_sizes: Sequence[int], out: np.ndarray = None
) -> np.ndarray:
    """Softmax applied independently within each hypercolumn block.

    ``support`` has shape ``(n_samples, sum(block_sizes))``; the result has
    the same shape, and each block of each row sums to one.  When all blocks
    share the same size the computation is reshaped to a single 3-D softmax
    (no Python loop); otherwise the loop runs over blocks (few) rather than
    samples (many).  ``out`` receives the result when given (it may alias
    ``support``), which lets the execution engine stream batches through a
    preallocated activation buffer.
    """
    support = np.asarray(support, dtype=np.float64)
    if support.ndim != 2:
        raise DataError(f"support must be 2-D, got shape {support.shape}")
    starts, stops, uniform = block_layout(tuple(block_sizes))
    total = int(stops[-1])
    if support.shape[1] != total:
        raise DataError(
            f"support has {support.shape[1]} columns, block sizes sum to {total}"
        )
    if out is not None and out.shape != support.shape:
        raise DataError(
            f"out has shape {out.shape}, expected {support.shape}"
        )
    if uniform:
        n, _ = support.shape
        h = starts.shape[0]
        m = int(stops[0])
        cube = support.reshape(n, h, m)
        if out is None:
            return row_softmax(cube).reshape(n, total)
        ocube = out.reshape(n, h, m)
        np.subtract(cube, cube.max(axis=-1, keepdims=True), out=ocube)
        np.exp(ocube, out=ocube)
        ocube /= ocube.sum(axis=-1, keepdims=True)
        return out
    if out is None:
        out = np.empty_like(support)
    for lo, hi in zip(starts, stops):
        out[:, lo:hi] = row_softmax(support[:, lo:hi])
    return out


def stable_log(values: np.ndarray, floor: float = EPS) -> np.ndarray:
    """Logarithm with a numerical floor, used when converting traces to weights."""
    values = np.asarray(values, dtype=np.float64)
    return np.log(np.maximum(values, floor))


def split_into_chunks(n_items: int, n_chunks: int) -> List[Tuple[int, int]]:
    """Split ``range(n_items)`` into ``n_chunks`` near-equal contiguous ranges.

    Used by the communicators and the distributed trainer for static
    row partitioning.  Chunks may be empty when ``n_chunks > n_items``.
    """
    if n_chunks <= 0:
        raise DataError("n_chunks must be positive")
    base = n_items // n_chunks
    rem = n_items % n_chunks
    ranges = []
    start = 0
    for i in range(n_chunks):
        size = base + (1 if i < rem else 0)
        ranges.append((start, start + size))
        start += size
    return ranges
