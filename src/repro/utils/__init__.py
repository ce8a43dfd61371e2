"""Shared utilities: RNG handling, validation, array helpers, logging."""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "rng": ["as_rng", "derive_rng", "spawn_rngs"],
        "validation": [
            "check_array",
            "check_fraction",
            "check_positive_int",
            "check_probability_matrix",
            "check_one_hot",
        ],
        "arrays": [
            "batch_slices",
            "one_hot",
            "row_softmax",
            "blockwise_softmax",
            "moving_average_update",
            "stable_log",
        ],
        "logging": ["get_logger"],
    },
)
