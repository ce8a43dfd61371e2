"""One byte per input unit: the stored dtype of ``x`` never changes a result.

``fit`` and every bulk forward keep ``x`` in the dtype it arrives in and widen
one ``(batch, n_in)`` tile at a time (``InputSpec.validate_batch``).  The
{0, 1} entries of a one-hot matrix are exact in every numeric dtype, so
training on the ``uint8`` encoding and on its float64 copy must agree bit for
bit — parameters, history and every generator — on each execution route.
(The ``process`` and ``tcp`` routes run the same helpers from
``tests/comm/test_training.py``, beside the transports' pools.)
"""

import numpy as np
import pytest

from repro import faults
from repro.backend.distributed import DistributedTrainer
from repro.comm import SerialComm
from repro.core import (
    BCPNNClassifier,
    BCPNNHyperParameters,
    InputSpec,
    Network,
    SGDClassifier,
    StructuralPlasticityLayer,
    TrainingSchedule,
)
from repro.core.network import TILE_ROWS
from repro.exceptions import DataError, FaultInjected
from repro.serving import predict_proba_stream
from repro.utils.rng import as_rng

SPEC = InputSpec.uniform(12, 5)
N = 600


def one_hot(n, spec=SPEC, seed=0, dtype=np.uint8):
    rng = np.random.default_rng(seed)
    x = np.zeros((n, spec.n_units), dtype=dtype)
    offset = 0
    for size in spec.hypercolumn_sizes:
        x[np.arange(n), offset + rng.integers(0, size, n)] = 1
        offset += size
    return x


def fit(x, density=0.3, head="sgd", pipeline=False, **fit_options):
    network = Network(seed=0)
    network.add(
        StructuralPlasticityLayer(
            2, 30, hyperparams=BCPNNHyperParameters(taupdt=0.02, density=density), seed=1
        )
    )
    network.add(SGDClassifier(n_classes=2, seed=2) if head == "sgd" else BCPNNClassifier(2))
    y = np.random.default_rng(1).integers(0, 2, len(x))
    schedule = TrainingSchedule(
        hidden_epochs=3, classifier_epochs=2, batch_size=64, pipeline=pipeline
    )
    network.fit(x, y, input_spec=SPEC, schedule=schedule, **fit_options)
    return network


def fitted_state(network):
    """Everything a fit leaves behind, as comparable values."""
    layer, head = network.hidden_layers[0], network.head
    arrays = [layer.traces.p_i, layer.traces.p_j, layer.traces.p_ij, layer.plasticity.mask]
    arrays += [layer.weights, layer.bias, head.weights, head.bias]
    history = [
        (r.phase, r.layer_name, r.epoch, sorted(r.metrics.items()))
        for r in network.history.records
    ]
    generators = [network._rng.bit_generator.state, layer._rng.bit_generator.state]
    return arrays, history, generators


def assert_same_fit(ours, theirs):
    (arrays, history, generators), (ref_arrays, ref_history, ref_generators) = (
        fitted_state(ours),
        fitted_state(theirs),
    )
    for mine, reference in zip(arrays, ref_arrays):
        assert np.array_equal(mine, reference)
    assert history == ref_history
    assert generators == ref_generators


ROUTES = {"serial": {}, "pipelined": {"pipeline": True}, "thread:2": {"comm": "thread:2"}}


class TestFitIsDtypeInvariant:
    @pytest.mark.parametrize("density", [0.3, 1.0])
    @pytest.mark.parametrize("route", list(ROUTES))
    def test_uint8_and_float64_fits_are_bitwise_equal(self, route, density):
        x = one_hot(N)
        compact = fit(x, density, **ROUTES[route])
        wide = fit(x.astype(np.float64), density, **ROUTES[route])
        assert_same_fit(compact, wide)

    @pytest.mark.parametrize("dtype", [np.bool_, np.int64, np.float32])
    def test_every_real_dtype_is_accepted_and_widened(self, dtype):
        x = one_hot(N)
        assert_same_fit(fit(x.astype(dtype), head="bcpnn"), fit(x.astype(np.float64), head="bcpnn"))

    @pytest.mark.parametrize("route", ["serial", "thread:2"])
    def test_resume_from_a_checkpoint_written_on_the_other_dtype(self, tmp_path, route):
        x = one_hot(N)
        baseline = fit(x, **ROUTES[route])
        faults.install_plan(faults.FaultPlan("driver.kill@epoch=1,mode=raise"))
        try:
            with pytest.raises(FaultInjected):
                fit(x, checkpoint_dir=tmp_path, **ROUTES[route])
        finally:
            faults.install_plan(None)
        resumed = fit(x.astype(np.float64), checkpoint_dir=tmp_path, resume=True, **ROUTES[route])
        assert_same_fit(resumed, baseline)

    def test_head_only_network_trains_on_the_stored_dtype(self):
        """Zero hidden layers: the head's input is ``x`` itself, never a float64 copy."""

        def head_only(x):
            network = Network(seed=0)
            network.add(BCPNNClassifier(n_classes=2))
            y = np.random.default_rng(1).integers(0, 2, len(x))
            network.fit(x, y, input_spec=SPEC, schedule=TrainingSchedule(classifier_epochs=2))
            return network

        x = one_hot(N)
        compact, wide = head_only(x), head_only(x.astype(np.float64))
        assert np.array_equal(compact.head.weights, wide.head.weights)
        assert compact._tiled(x) is x
        assert np.array_equal(compact.predict_proba(x), wide.predict_proba(x))


class TestInferenceIsDtypeInvariant:
    @pytest.fixture(scope="class")
    def network(self):
        return fit(one_hot(N))

    @pytest.mark.parametrize("n", [1, TILE_ROWS - 1, TILE_ROWS + 1])
    def test_every_bulk_call_agrees_across_dtypes(self, network, n):
        x = one_hot(n, seed=n)
        wide = x.astype(np.float64)
        for method in ("predict", "predict_proba", "transform"):
            assert np.array_equal(getattr(network, method)(x), getattr(network, method)(wide))
        assert np.array_equal(network.predict_stream(x), network.predict(wide))
        assert np.array_equal(
            predict_proba_stream(network, x, batch_size=TILE_ROWS), network.predict_proba(wide)
        )


class _NeverRun(SerialComm):
    """A communicator whose ranks must not be entered."""

    def run(self, program, rank_args=None):
        raise AssertionError("a rank was entered before the input was validated")

    def bcast(self, array, root=0):
        raise AssertionError("the input was broadcast before it was validated")


BAD_INPUTS = {  # kind: (input, what the DataError names)
    "object": (np.full((8, SPEC.n_units), None, dtype=object), "object"),
    "str": (np.full((8, SPEC.n_units), "1"), "<U1"),
    "complex": (np.ones((8, SPEC.n_units), dtype=np.complex128), "complex128"),
    "ragged": ([[0] * SPEC.n_units] * 7 + [[0]], "x is not a rectangular matrix"),
}


@pytest.mark.parametrize("kind", list(BAD_INPUTS))
class TestUnsupportedDtypesAreRefusedAtTheEntryPoints:
    def test_fit(self, kind, monkeypatch):
        def no_comm(spec):
            raise AssertionError("a communicator was built before the input was validated")

        monkeypatch.setattr("repro.comm.resolve_comm", no_comm)
        x, named = BAD_INPUTS[kind]
        with pytest.raises(DataError, match=named):
            fit(x, comm="process:2")

    def test_bulk_forward(self, kind):
        network = fit(one_hot(128))
        x, named = BAD_INPUTS[kind]
        for method in ("predict", "predict_proba", "transform"):
            with pytest.raises(DataError, match=named):
                getattr(network, method)(x)

    def test_streamed_inference(self, kind):
        from repro.serving import StreamingPredictor

        network = fit(one_hot(128))
        predictor = StreamingPredictor(network, batch_size=32)
        x, named = BAD_INPUTS[kind]
        calls = (
            network.predict_stream,
            predictor.predict_stream,
            predictor.predict_proba_stream,
        )
        for call in calls:
            with pytest.raises(DataError, match=named):
                call(x)

    def test_spmd_trainer(self, kind):
        layer = StructuralPlasticityLayer(2, 6, seed=3)
        layer.build(SPEC)
        x, named = BAD_INPUTS[kind]
        with pytest.raises(DataError, match=named):
            DistributedTrainer(_NeverRun()).train_layer(
                layer, x, epochs=1, batch_size=4, rng=as_rng(0)
            )


class _RecordingComm(SerialComm):
    def __init__(self):
        super().__init__()
        self.broadcasts = []

    def bcast(self, array, root=0):
        self.broadcasts.append((array.dtype, array.nbytes))
        return super().bcast(array, root)


def test_the_broadcast_ships_the_stored_dtype():
    """The SPMD program's first collective is the dataset: ``x.nbytes``, not x 8."""
    x = one_hot(256)
    layer = StructuralPlasticityLayer(2, 6, seed=3)
    layer.build(SPEC)
    comm = _RecordingComm()
    DistributedTrainer(comm).train_layer(layer, x, epochs=1, batch_size=64, rng=as_rng(0))
    assert comm.broadcasts[0] == (np.dtype(np.uint8), 256 * SPEC.n_units)
