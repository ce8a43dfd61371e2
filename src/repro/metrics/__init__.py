"""Evaluation metrics implemented from scratch (no scikit-learn dependency).

The paper reports test accuracy and Area Under the ROC Curve (AUC); the
related Kaggle challenge used the Approximate Median Significance (AMS).
All three, plus the usual confusion-matrix derived scores and calibration
diagnostics, live here.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "classification": [
            "accuracy",
            "balanced_accuracy",
            "confusion_matrix",
            "precision_recall_f1",
            "classification_report",
            "log_loss",
        ],
        "roc": ["roc_curve", "roc_auc", "rank_auc", "precision_recall_curve", "average_precision"],
        "ams": ["ams_score", "best_ams_threshold"],
        "calibration": ["calibration_curve", "expected_calibration_error", "brier_score"],
    },
)
