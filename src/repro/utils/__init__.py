"""Shared utilities: RNG handling, validation, array helpers, logging."""

from repro.utils.rng import as_rng, derive_rng, spawn_rngs
from repro.utils.validation import (
    check_array,
    check_fraction,
    check_positive_int,
    check_probability_matrix,
    check_one_hot,
)
from repro.utils.arrays import (
    batch_slices,
    one_hot,
    row_softmax,
    blockwise_softmax,
    moving_average_update,
    stable_log,
)
from repro.utils.logging import get_logger

__all__ = [
    "as_rng",
    "derive_rng",
    "spawn_rngs",
    "check_array",
    "check_fraction",
    "check_positive_int",
    "check_probability_matrix",
    "check_one_hot",
    "batch_slices",
    "one_hot",
    "row_softmax",
    "blockwise_softmax",
    "moving_average_update",
    "stable_log",
    "get_logger",
]
