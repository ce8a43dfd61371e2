"""Shared utilities: RNG handling, validation, array helpers, logging."""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "rng": ["as_rng"],
        "validation": [
            "check_array",
            "check_fraction",
            "check_positive_int",
        ],
        "arrays": [
            "one_hot",
            "row_softmax",
            "blockwise_softmax",
            "stable_log",
        ],
        "logging": ["get_logger"],
    },
)
