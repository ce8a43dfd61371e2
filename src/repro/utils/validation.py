"""Input validation helpers.

These are intentionally strict: BCPNN's probabilistic learning rule assumes
inputs are probability distributions within each hypercolumn, so silent
acceptance of malformed data leads to NaN weights far from the call site.
All validators raise :class:`repro.exceptions.DataError` or
:class:`repro.exceptions.ConfigurationError` with actionable messages.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, DataError

__all__ = [
    "check_array",
    "check_numeric_dtype",
    "check_positive_int",
    "check_fraction",
    "check_probability_matrix",
    "check_one_hot",
    "check_labels",
    "check_same_length",
    "check_sparse_mode",
]


def check_sparse_mode(value, name: str = "sparse") -> str:
    """Validate a block-sparse execution mode string ("auto"/"on"/"off").

    The single validation point shared by the schedule/plan/config
    dataclasses; boolean convenience forms are handled one level up by
    :func:`repro.core.execution.normalize_sparse_mode`.
    """
    if value not in ("auto", "on", "off"):
        raise ConfigurationError(
            f"{name} must be 'auto', 'on' or 'off', got {value!r}"
        )
    return value


def check_array(
    value,
    *,
    name: str = "array",
    ndim: Optional[int] = None,
    dtype=np.float64,
    allow_empty: bool = False,
    copy: bool = False,
) -> np.ndarray:
    """Coerce ``value`` to a contiguous ndarray and validate its shape.

    Parameters
    ----------
    value:
        Array-like input.
    name:
        Name used in error messages.
    ndim:
        Required dimensionality, or ``None`` to accept any.
    dtype:
        Target dtype (``None`` keeps the input dtype).
    allow_empty:
        Whether zero-sized arrays are acceptable.
    copy:
        Force a copy even when the input is already a conforming ndarray.
    """
    try:
        arr = np.array(value, dtype=dtype, copy=copy) if copy else np.asarray(value, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise DataError(f"{name} could not be converted to an ndarray: {exc}") from exc
    if ndim is not None and arr.ndim != ndim:
        raise DataError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not allow_empty and arr.size == 0:
        raise DataError(f"{name} must not be empty")
    if arr.dtype.kind == "f" and not np.all(np.isfinite(arr)):
        raise DataError(f"{name} contains NaN or infinite values")
    return np.ascontiguousarray(arr)


def check_numeric_dtype(value, name: str = "x") -> np.ndarray:
    """``value`` as an ndarray in its stored dtype; reject what no kernel can widen.

    ``Network.fit``, the tiled forward and the SPMD trainer keep a dataset as
    it arrives (one byte per unit for the ``uint8`` one-hot encoding) and
    widen per batch in ``InputSpec.validate_batch``: bool and every
    integer/float width pass; object, string and complex input is refused
    here, before a kernel — or a worker rank after the broadcast — sees it, and
    so is a ragged nested sequence.
    """
    try:
        arr = np.asarray(value)
    except ValueError as exc:
        raise DataError(f"{name} is not a rectangular matrix: {exc}") from exc
    if arr.dtype.kind not in "biuf":
        raise DataError(f"{name} has unsupported dtype {arr.dtype}; expected a real numeric matrix")
    return arr


def check_positive_int(value, name: str, *, minimum: int = 1) -> int:
    """Validate an integral hyper-parameter such as ``n_hypercolumns``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < minimum:
        raise ConfigurationError(f"{name} must be >= {minimum}, got {value}")
    return value


def check_fraction(
    value, name: str, *, inclusive_low: bool = True, inclusive_high: bool = True
) -> float:
    """Validate a fraction-style hyper-parameter in ``[0, 1]``."""
    try:
        value = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{name} must be a float in [0, 1], got {value!r}") from exc
    low_ok = value >= 0.0 if inclusive_low else value > 0.0
    high_ok = value <= 1.0 if inclusive_high else value < 1.0
    if not (low_ok and high_ok) or not np.isfinite(value):
        raise ConfigurationError(f"{name} must lie in [0, 1], got {value}")
    return value


def check_probability_matrix(
    activations: np.ndarray,
    hypercolumn_sizes: Sequence[int],
    *,
    name: str = "activations",
    atol: float = 1e-6,
) -> np.ndarray:
    """Validate that each hypercolumn block of each row sums to one.

    ``activations`` has shape ``(n_samples, sum(hypercolumn_sizes))`` and is
    interpreted as a concatenation of per-hypercolumn probability
    distributions (the output of a modular softmax, or a one-hot encoding).
    """
    arr = check_array(activations, name=name, ndim=2)
    total = int(sum(hypercolumn_sizes))
    if arr.shape[1] != total:
        raise DataError(
            f"{name} has {arr.shape[1]} columns but hypercolumn sizes sum to {total}"
        )
    if np.any(arr < -atol):
        raise DataError(f"{name} contains negative probabilities")
    offset = 0
    for idx, size in enumerate(hypercolumn_sizes):
        block = arr[:, offset : offset + size]
        sums = block.sum(axis=1)
        if not np.allclose(sums, 1.0, atol=max(atol, 1e-4)):
            bad = int(np.argmax(np.abs(sums - 1.0)))
            raise DataError(
                f"{name}: hypercolumn {idx} does not sum to 1 for row {bad} "
                f"(sum={sums[bad]:.6f})"
            )
        offset += size
    return arr


def check_one_hot(encoded: np.ndarray, n_bins: int, *, name: str = "encoded") -> np.ndarray:
    """Validate a one-hot encoded matrix with uniform block size ``n_bins``."""
    arr = check_array(encoded, name=name, ndim=2)
    if arr.shape[1] % n_bins != 0:
        raise DataError(
            f"{name} has {arr.shape[1]} columns which is not a multiple of n_bins={n_bins}"
        )
    n_features = arr.shape[1] // n_bins
    reshaped = arr.reshape(arr.shape[0], n_features, n_bins)
    if not np.array_equal(reshaped.sum(axis=2), np.ones((arr.shape[0], n_features))):
        raise DataError(f"{name} is not one-hot: some blocks do not sum to exactly 1")
    if not np.all((arr == 0.0) | (arr == 1.0)):
        raise DataError(f"{name} is not one-hot: values other than 0/1 present")
    return arr


def check_labels(labels, n_classes: Optional[int] = None, *, name: str = "labels") -> np.ndarray:
    """Validate an integer class-label vector."""
    arr = np.asarray(labels)
    if arr.ndim != 1:
        raise DataError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise DataError(f"{name} must not be empty")
    if arr.dtype.kind == "f":
        if not np.all(arr == np.floor(arr)):
            raise DataError(f"{name} must contain integers")
        arr = arr.astype(np.int64)
    elif arr.dtype.kind in "iu":
        arr = arr.astype(np.int64)
    elif arr.dtype.kind == "b":
        arr = arr.astype(np.int64)
    else:
        raise DataError(f"{name} has unsupported dtype {arr.dtype}")
    if np.any(arr < 0):
        raise DataError(f"{name} must be non-negative class indices")
    if n_classes is not None and np.any(arr >= n_classes):
        raise DataError(f"{name} contains a class index >= n_classes={n_classes}")
    return arr


def check_same_length(*arrays, names: Optional[Sequence[str]] = None) -> Tuple[np.ndarray, ...]:
    """Validate that all arrays share their first dimension."""
    if not arrays:
        return ()
    lengths = [np.asarray(a).shape[0] for a in arrays]
    if len(set(lengths)) != 1:
        label = names if names is not None else [f"array{i}" for i in range(len(arrays))]
        detail = ", ".join(f"{n}={l}" for n, l in zip(label, lengths))
        raise DataError(f"arrays have mismatched lengths: {detail}")
    return tuple(np.asarray(a) for a in arrays)
