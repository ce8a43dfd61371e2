"""Pipelined serving: the hidden stages of batch ``k`` overlap the head
stage of batch ``k-1`` on a background worker.

Contract: bit-for-bit the same outputs as the sequential streaming loop —
the overlap is purely a schedule change, made safe by the double-buffered
stage engines.
"""

import numpy as np
import pytest

from repro.datasets.stream import BatchStream
from repro.serving import StreamingPredictor, predict_proba_stream, predict_stream


class TestPipelinedEquivalence:
    def test_predictions_bit_for_bit(self, trained_network, encoded_higgs):
        x = encoded_higgs["x_test"]
        reference = trained_network.predict(x)
        for batch_size in (64, 257, x.shape[0] + 100):
            piped = predict_stream(trained_network, x, batch_size=batch_size, pipeline=True)
            assert np.array_equal(piped, reference), f"batch_size={batch_size}"

    def test_probabilities_bit_for_bit_vs_sequential_stream(
        self, trained_network, encoded_higgs
    ):
        x = encoded_higgs["x_test"]
        sequential = predict_proba_stream(trained_network, x, batch_size=128)
        piped = predict_proba_stream(trained_network, x, batch_size=128, pipeline=True)
        np.testing.assert_array_equal(piped, sequential)

    def test_shuffled_batchstream_source(self, trained_network, encoded_higgs):
        # A shuffled prebuilt stream scatters results back by batch indices;
        # the overlapped loop must preserve that contract.
        x = encoded_higgs["x_test"]
        reference = trained_network.predict(x)
        stream = BatchStream(x, batch_size=96, shuffle=True, rng=5)
        predictor = StreamingPredictor(trained_network, batch_size=96, pipeline=True)
        assert np.array_equal(predictor.predict_stream(stream), reference)

    def test_remainder_batch(self, trained_network, encoded_higgs):
        x = encoded_higgs["x_test"][:130]  # 64 + 64 + 2
        piped = predict_stream(trained_network, x, batch_size=64, pipeline=True)
        assert np.array_equal(piped, trained_network.predict(x))

    def test_empty_input(self, trained_network, encoded_higgs):
        x = encoded_higgs["x_test"][:0]
        piped = predict_stream(trained_network, x, batch_size=64, pipeline=True)
        assert piped.shape == (0,)


class TestPipelineConfiguration:
    def test_pipeline_implies_double_buffering(self, trained_network):
        single = StreamingPredictor(trained_network, batch_size=128)
        piped = StreamingPredictor(trained_network, batch_size=128, pipeline=True)
        assert piped.n_buffers == 2
        assert piped.workspace_nbytes() == 2 * single.workspace_nbytes()

    @pytest.mark.parametrize("backend", ["float32", "float16", "posit16"])
    def test_pipeline_on_other_backends(self, backend, trained_network, encoded_higgs):
        x = encoded_higgs["x_test"]
        sequential = StreamingPredictor(trained_network, batch_size=128, backend=backend)
        piped = StreamingPredictor(
            trained_network, batch_size=128, backend=backend, pipeline=True
        )
        np.testing.assert_array_equal(
            piped.predict_proba_stream(x), sequential.predict_proba_stream(x)
        )

    def test_masked_cache_invalidated_by_retraining(self, encoded_higgs):
        """Regression: a predictor's cached weights*mask product must not
        survive in-place weight refreshes between predict calls.

        Weights mutate in place during training (same ndarray object), so
        the stage engines key their cache on the layer's refresh token; a
        stale cache would silently serve pre-retraining predictions.
        """
        from repro.core import (
            BCPNNClassifier,
            BCPNNHyperParameters,
            InputSpec,
            Network,
            StructuralPlasticityLayer,
            TrainingSchedule,
        )

        x = encoded_higgs["x_train"][:512]
        y = encoded_higgs["y_train"][:512]
        network = Network(seed=3, name="retrain-serving")
        network.add(
            StructuralPlasticityLayer(
                2, 10, hyperparams=BCPNNHyperParameters(taupdt=0.05, density=0.5), seed=1
            )
        )
        network.add(BCPNNClassifier(n_classes=2))
        schedule = TrainingSchedule(hidden_epochs=1, classifier_epochs=1, batch_size=128)
        network.fit(x, y, input_spec=encoded_higgs["spec"], schedule=schedule)
        predictor = StreamingPredictor(network, batch_size=128)
        predictor.predict_proba_stream(x)  # warm the masked-product caches
        # Continue training WITHOUT rebuilding: weights refresh in place,
        # the mask object is unchanged — only the token can invalidate.
        layer = network.hidden_layers[0]
        for _ in range(5):
            layer.train_batch(x[:128])
        np.testing.assert_array_equal(
            predictor.predict_proba_stream(x), network.predict_proba(x)
        )

    def test_pipelined_serving_over_thread_comm(self, trained_network, encoded_higgs):
        from repro.comm import ThreadComm

        x = encoded_higgs["x_test"]
        reference = trained_network.predict(x)
        with ThreadComm(2) as comm:
            predictor = StreamingPredictor(
                trained_network, batch_size=128, pipeline=True, comm=comm
            )
            assert np.array_equal(predictor.predict_stream(x), reference)
