"""Dataset loaders, generators and preprocessing.

The paper uses the UCI HIGGS dataset (11M simulated collision events, 28
features).  That file cannot be downloaded in this environment, so the
package provides a physics-inspired synthetic generator with the identical
schema and a loader that transparently prefers the real ``HIGGS.csv.gz`` if
it is present (see DESIGN.md, substitution table).  A procedural MNIST-like
digit generator backs the receptive-field illustration experiments.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "base": ["Dataset", "DatasetSplits"],
        "higgs": [
            "HIGGS_FEATURE_NAMES",
            "HIGGS_LOW_LEVEL",
            "HIGGS_HIGH_LEVEL",
            "SyntheticHiggsGenerator",
            "load_higgs",
            "make_higgs_splits",
        ],
        "mnist": ["SyntheticDigits"],
        "preprocessing": ["QuantileOneHotEncoder", "balanced_subsample"],
        "splits": ["train_test_split"],
        "registry": [
            "SplitSpec",
            "ScenarioSpec",
            "register_scenario",
            "get_scenario",
            "list_scenarios",
            "scenario_catalog",
        ],
        "stream": ["Batch", "BatchStream"],
    },
)
