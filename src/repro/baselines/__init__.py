"""Baseline classifiers for the related-work comparison (Section VI).

The paper situates BCPNN's 75.5-76.4% AUC against the methods evaluated on
the same dataset by Baldi et al. (2014): boosted decision trees, shallow
neural networks (~81.6% AUC) and deep neural networks (~88% AUC).  To
regenerate that comparison on the same split, from-scratch NumPy
implementations of those baselines live here.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "base": ["BaselineClassifier"],
        "logistic": ["LogisticRegressionBaseline"],
        "mlp": ["MLPBaseline", "relu", "relu_grad", "tanh_act", "tanh_grad"],
        "trees": ["DecisionTreeBaseline", "DecisionStump"],
        "boosting": ["GradientBoostingBaseline"],
    },
)
