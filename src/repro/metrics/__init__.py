"""Evaluation metrics implemented from scratch (no scikit-learn dependency).

The paper reports test accuracy and Area Under the ROC Curve (AUC); both,
the log loss, and the calibration diagnostics live here.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "classification": ["accuracy", "log_loss"],
        "roc": ["roc_curve", "roc_auc"],
        "calibration": ["calibration_curve", "expected_calibration_error", "brier_score"],
    },
)
