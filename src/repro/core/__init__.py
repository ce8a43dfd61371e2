"""BCPNN core: the paper's primary contribution.

The public surface mirrors StreamBrain's Keras-inspired API:

>>> from repro.core import Network, StructuralPlasticityLayer, BCPNNClassifier
>>> net = Network(seed=0)
>>> net.add(StructuralPlasticityLayer(n_hypercolumns=4, n_minicolumns=50, density=0.3))
>>> net.add(BCPNNClassifier(n_classes=2))
>>> net.fit(x_train, y_train, epochs=5)            # doctest: +SKIP
>>> accuracy = net.evaluate(x_test, y_test)["accuracy"]  # doctest: +SKIP
"""

from repro.core.hyperparams import BCPNNHyperParameters, TrainingSchedule
from repro.core.traces import ProbabilityTraces
from repro.core.plasticity import StructuralPlasticity
from repro.core.layers import InputSpec, StructuralPlasticityLayer
from repro.core.heads import BCPNNClassifier, SGDClassifier
from repro.core.network import Network
from repro.core.training import History, TrainingCallback, EpochResult
from repro.core.serialization import load_network, save_network

__all__ = [
    "BCPNNHyperParameters",
    "TrainingSchedule",
    "ProbabilityTraces",
    "StructuralPlasticity",
    "InputSpec",
    "StructuralPlasticityLayer",
    "BCPNNClassifier",
    "SGDClassifier",
    "Network",
    "History",
    "TrainingCallback",
    "EpochResult",
    "save_network",
    "load_network",
]
