"""repro: a StreamBrain-style BCPNN framework and Higgs-classification reproduction.

This package reproduces *"Higgs Boson Classification: Brain-inspired BCPNN
Learning with StreamBrain"* (Svedin, Podobas, Chien & Markidis, CLUSTER
2021): the BCPNN learning rule with structural plasticity, a Keras-like
network front end, multiple compute backends, the Higgs preprocessing
pipeline, in-situ receptive-field visualization, hyper-parameter search and
the full evaluation harness.

Quick start::

    from repro.datasets import make_higgs_splits, QuantileOneHotEncoder
    from repro.core import Network, StructuralPlasticityLayer, SGDClassifier, InputSpec

    splits = make_higgs_splits(n_samples=10000, seed=0)
    encoder = QuantileOneHotEncoder(n_bins=10).fit(splits.train.features)
    net = Network(seed=0)
    net.add(StructuralPlasticityLayer(n_hypercolumns=1, n_minicolumns=200, density=0.4))
    net.add(SGDClassifier(n_classes=2))
    net.fit(encoder.transform(splits.train.features), splits.train.labels,
            input_spec=InputSpec.from_encoder(encoder))
    print(net.evaluate(encoder.transform(splits.test.features), splits.test.labels))
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "version": ["__version__"],
        "core": [
            "BCPNNClassifier",
            "BCPNNHyperParameters",
            "InputSpec",
            "Network",
            "SGDClassifier",
            "StructuralPlasticityLayer",
            "TrainingSchedule",
        ],
    },
    submodules=[
        "backend",
        "baselines",
        "core",
        "datasets",
        "engine",
        "experiments",
        "hyperopt",
        "instrumentation",
        "metrics",
        "serving",
        "visualization",
    ],
)
