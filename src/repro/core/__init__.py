"""BCPNN core: the paper's primary contribution.

The public surface mirrors StreamBrain's Keras-inspired API:

>>> from repro.core import Network, StructuralPlasticityLayer, BCPNNClassifier
>>> net = Network(seed=0)
>>> net.add(StructuralPlasticityLayer(n_hypercolumns=4, n_minicolumns=50, density=0.3))
>>> net.add(BCPNNClassifier(n_classes=2))
>>> net.fit(x_train, y_train, epochs=5)            # doctest: +SKIP
>>> accuracy = net.evaluate(x_test, y_test)["accuracy"]  # doctest: +SKIP
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "hyperparams": ["BCPNNHyperParameters", "TrainingSchedule"],
        "traces": ["ProbabilityTraces"],
        "plasticity": ["StructuralPlasticity"],
        "layers": ["InputSpec", "StructuralPlasticityLayer"],
        "heads": ["BCPNNClassifier", "SGDClassifier"],
        "network": ["Network"],
        "training": ["History", "TrainingCallback", "EpochResult"],
        "serialization": ["load_network", "save_network"],
    },
)
