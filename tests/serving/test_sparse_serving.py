"""Streaming serving under the block-sparse execution plan.

The predictor inherits each layer's sparse decision, so a sparse network
streams through the gather-GEMM kernels while keeping every serving
guarantee: equality with ``Network.predict`` (bitwise on hard predictions),
remainder batches, prebuilt shuffled streams, pipelined overlap, and
per-backend equivalence.
"""

import numpy as np
import pytest

from repro.core import (
    BCPNNClassifier,
    InputSpec,
    Network,
    SGDClassifier,
    StructuralPlasticityLayer,
    TrainingSchedule,
)
from repro.datasets.stream import BatchStream
from repro.instrumentation.pipeline_bench import _pinned_density_threshold as pinned_threshold
from repro.serving import StreamingPredictor

INPUT_SIZES = [10] * 28
SPEC = InputSpec(INPUT_SIZES)


def _one_hot(n, seed):
    rng = np.random.default_rng(seed)
    x = np.zeros((n, sum(INPUT_SIZES)))
    offset = 0
    for size in INPUT_SIZES:
        winners = rng.integers(0, size, size=n)
        x[np.arange(n), offset + winners] = 1.0
        offset += size
    return x


@pytest.fixture(scope="module")
def sparse_network():
    x = _one_hot(512, seed=0)
    y = (np.arange(512) % 2).astype(np.int64)
    network = Network(seed=3)
    network.add(StructuralPlasticityLayer(1, 80, density=0.3, seed=4))
    network.add(BCPNNClassifier(n_classes=2))
    network.fit(x, y, input_spec=SPEC,
                schedule=TrainingSchedule(hidden_epochs=2, classifier_epochs=2,
                                          batch_size=128))
    assert network.hidden_layers[0].sparse_active
    return network, x


class TestSparseStreaming:
    def test_matches_network_predict_across_batch_sizes(self, sparse_network):
        network, x = sparse_network
        reference = network.predict(x)
        for batch_size in (512, 128, 100, 33):
            predictor = StreamingPredictor(network, batch_size=batch_size)
            assert np.array_equal(predictor.predict_stream(x), reference), batch_size

    def test_probabilities_match_to_summation_order(self, sparse_network):
        network, x = sparse_network
        predictor = StreamingPredictor(network, batch_size=100)
        np.testing.assert_allclose(
            predictor.predict_proba_stream(x), network.predict_proba(x), atol=1e-12
        )

    def test_sparse_equals_dense_serving_bitwise(self, sparse_network):
        """Same trained model, served sparse vs forced dense: batch-aligned
        streams are bitwise identical on the gate configuration."""
        network, x = sparse_network
        sparse_out = StreamingPredictor(network, batch_size=128).predict_proba_stream(x)
        layer = network.hidden_layers[0]
        try:
            with pinned_threshold(0.0):
                layer._refresh_sparse_layout()
            assert not layer.sparse_active
            dense_out = StreamingPredictor(
                network, batch_size=128
            ).predict_proba_stream(x)
        finally:
            layer._refresh_sparse_layout()
        assert layer.sparse_active
        assert np.array_equal(sparse_out, dense_out)

    def test_prebuilt_shuffled_stream_with_remainder(self, sparse_network):
        network, x = sparse_network
        stream = BatchStream(
            x[:500], batch_size=96, shuffle=True, rng=np.random.default_rng(9)
        )
        predictor = StreamingPredictor(network, batch_size=96)
        assert np.array_equal(
            predictor.predict_stream(stream), network.predict(x[:500])
        )

    def test_pipelined_serving_is_bitwise_identical(self, sparse_network):
        network, x = sparse_network
        plain = StreamingPredictor(network, batch_size=128)
        piped = StreamingPredictor(network, batch_size=128, pipeline=True)
        assert np.array_equal(
            piped.predict_proba_stream(x), plain.predict_proba_stream(x)
        )

    @pytest.mark.parametrize("backend", ["float32", "float16", "posit16"])
    def test_backend_override_serves_sparse(self, sparse_network, backend):
        network, x = sparse_network
        predictor = StreamingPredictor(network, batch_size=128, backend=backend)
        assert np.array_equal(predictor.predict_stream(x), network.predict(x))

    def test_workspaces_stay_o_batch(self, sparse_network):
        network, x = sparse_network
        small = StreamingPredictor(network, batch_size=64)
        large = StreamingPredictor(network, batch_size=256)
        assert small.workspace_nbytes() < large.workspace_nbytes()
        # The gather scratch is bounded by batch_size x n_input.
        small.predict_stream(x)
        assert small.workspace_nbytes() <= large.workspace_nbytes() + 64 * 280 * 8


class TestSgdHeadSparseServing:
    def test_hybrid_head_round_trip(self):
        x = _one_hot(256, seed=5)
        y = (np.arange(256) % 2).astype(np.int64)
        network = Network(seed=6)
        network.add(StructuralPlasticityLayer(1, 40, density=0.2, seed=7))
        network.add(SGDClassifier(n_classes=2, seed=8))
        network.fit(x, y, input_spec=SPEC,
                    schedule=TrainingSchedule(hidden_epochs=1, classifier_epochs=1,
                                              batch_size=64))
        assert network.hidden_layers[0].sparse_active
        predictor = StreamingPredictor(network, batch_size=96)
        assert np.array_equal(predictor.predict_stream(x), network.predict(x))
