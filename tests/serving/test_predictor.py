"""Tests for the streaming inference subsystem (``repro.serving``).

The central contracts:

* ``predict_stream`` matches ``Network.predict`` **bit-for-bit** on the
  NumPy backend (and within each backend's declared precision elsewhere);
* peak allocation while streaming is O(batch), independent of input length;
* a distributed backend shards the rows over ranks and combines the results
  with a **single** gather.
"""

import tracemalloc

import numpy as np
import pytest

from repro.backend.distributed import DistributedBackend
from repro.datasets.stream import BatchStream
from repro.exceptions import DataError, NotFittedError
from repro.serving import StreamingPredictor, predict_proba_stream, predict_stream

#: (backend name, absolute tolerance implied by its declared precision) —
#: mirrors tests/engine/test_execution.py.
BACKEND_TOLERANCES = [
    ("parallel", 1e-10),
    ("distributed", 1e-8),
    ("float32", 1e-4),
    ("float16", 5e-2),
]


class TestNumpyEquivalence:
    def test_predictions_bit_for_bit(self, trained_network, encoded_higgs):
        x = encoded_higgs["x_test"]
        reference = trained_network.predict(x)
        for batch_size in (64, 128, 257, x.shape[0] + 100):
            streamed = predict_stream(trained_network, x, batch_size=batch_size)
            assert streamed.dtype == reference.dtype
            assert np.array_equal(streamed, reference), f"batch_size={batch_size}"

    def test_probabilities_bit_for_bit_single_batch(self, trained_network, encoded_higgs):
        # With batch_size >= n the streamed GEMM has the exact shape of the
        # one-shot path, so even BLAS blocking cannot introduce drift.
        x = encoded_higgs["x_test"]
        reference = trained_network.predict_proba(x)
        streamed = predict_proba_stream(trained_network, x, batch_size=x.shape[0])
        assert np.array_equal(streamed, reference)

    def test_probabilities_batched(self, trained_network, encoded_higgs):
        # Sub-full batch sizes may change BLAS blocking; anything beyond the
        # last ulp is a real bug.
        x = encoded_higgs["x_test"]
        reference = trained_network.predict_proba(x)
        for batch_size in (64, 100, 333):
            streamed = predict_proba_stream(trained_network, x, batch_size=batch_size)
            np.testing.assert_allclose(streamed, reference, atol=1e-12)

    def test_remainder_batch(self, trained_network, encoded_higgs):
        x = encoded_higgs["x_test"][:130]
        streamed = predict_stream(trained_network, x, batch_size=64)  # 64+64+2
        assert np.array_equal(streamed, trained_network.predict(x))


class TestBackends:
    @pytest.mark.parametrize("name,tol", BACKEND_TOLERANCES)
    def test_matches_reference_within_declared_precision(
        self, name, tol, trained_network, encoded_higgs
    ):
        x = encoded_higgs["x_test"]
        ref_proba = trained_network.predict_proba(x)
        ref_pred = trained_network.predict(x)
        predictor = StreamingPredictor(trained_network, batch_size=128, backend=name)
        proba = predictor.predict_proba_stream(x)
        np.testing.assert_allclose(proba, ref_proba, atol=tol)
        agreement = float(np.mean(predictor.predict_stream(x) == ref_pred))
        assert agreement >= (1.0 if tol <= 1e-8 else 0.98)
        predictor.backend.close()

    def test_distributed_shards_with_single_gather(self, trained_network, encoded_higgs):
        x = encoded_higgs["x_test"]
        backend = DistributedBackend(n_ranks=3)
        predictor = StreamingPredictor(trained_network, batch_size=64, backend=backend)
        predictions = predictor.predict_stream(x)
        assert np.array_equal(predictions, trained_network.predict(x))
        # One collective per call — independent of the number of batches.
        assert backend.comm.collective_calls["allgather"] == 1
        proba = predictor.predict_proba_stream(x)
        np.testing.assert_allclose(proba, trained_network.predict_proba(x), atol=1e-8)
        assert backend.comm.collective_calls["allgather"] == 2

    def test_every_registered_backend_streams(self, trained_network, encoded_higgs):
        # A dataset larger than any single workspace must stream through
        # every name in the registry (aliases included).
        from repro.backend import list_backends

        x = np.vstack([encoded_higgs["x_test"]] * 2)
        reference = trained_network.predict(x)
        for name in list_backends():
            predictor = StreamingPredictor(trained_network, batch_size=96, backend=name)
            assert x.shape[0] * x.shape[1] * 8 > predictor.workspace_nbytes()
            predictions = predictor.predict_stream(x)
            assert predictions.shape == reference.shape
            agreement = float(np.mean(predictions == reference))
            assert agreement >= 0.95, f"backend {name}: agreement {agreement:.3f}"
            predictor.backend.close()

    def test_per_layer_explicit_backend_respected(self, encoded_higgs):
        # A layer that explicitly chose its backend must run serving on that
        # backend too — predict_stream may not silently fall back to NumPy.
        from repro.core import (
            BCPNNHyperParameters,
            Network,
            SGDClassifier,
            StructuralPlasticityLayer,
            TrainingSchedule,
        )

        network = Network(seed=0)
        network.add(
            StructuralPlasticityLayer(
                n_hypercolumns=1,
                n_minicolumns=20,
                hyperparams=BCPNNHyperParameters(taupdt=0.02, density=0.4),
                backend="float32",
                seed=1,
            )
        )
        network.add(SGDClassifier(n_classes=2, seed=2))
        network.fit(
            encoded_higgs["x_train"][:512],
            encoded_higgs["y_train"][:512],
            input_spec=encoded_higgs["spec"],
            schedule=TrainingSchedule(hidden_epochs=1, classifier_epochs=2, batch_size=128),
        )
        x = encoded_higgs["x_test"]
        predictor = StreamingPredictor(network, batch_size=128)
        # The stage must dispatch on the layer's own lowprec backend instance.
        assert predictor._stages[0].engines[0].backend is network.hidden_layers[0].backend
        assert predictor.backend.name == "lowprec-float32"
        np.testing.assert_allclose(
            predictor.predict_proba_stream(x), network.predict_proba(x), atol=1e-12
        )
        assert np.array_equal(predictor.predict_stream(x), network.predict(x))

    def test_network_level_distributed_backend_shards(self, encoded_higgs):
        # Network(backend="distributed") threads one instance through every
        # layer; serving must recognise the uniform stack and rank-shard.
        from repro.core import (
            BCPNNHyperParameters,
            Network,
            SGDClassifier,
            StructuralPlasticityLayer,
            TrainingSchedule,
        )

        backend = DistributedBackend(n_ranks=2)
        network = Network(seed=0, backend=backend)
        network.add(
            StructuralPlasticityLayer(
                n_hypercolumns=1,
                n_minicolumns=20,
                hyperparams=BCPNNHyperParameters(taupdt=0.02, density=0.4),
                seed=1,
            )
        )
        network.add(SGDClassifier(n_classes=2, seed=2))
        network.fit(
            encoded_higgs["x_train"][:512],
            encoded_higgs["y_train"][:512],
            input_spec=encoded_higgs["spec"],
            schedule=TrainingSchedule(hidden_epochs=1, classifier_epochs=2, batch_size=128),
        )
        gathers_before = backend.comm.collective_calls["allgather"]
        predictions = network.predict_stream(encoded_higgs["x_test"], batch_size=64)
        assert np.array_equal(predictions, network.predict(encoded_higgs["x_test"]))
        assert backend.comm.collective_calls["allgather"] == gathers_before + 1

    def test_distributed_uneven_shards(self, trained_network, encoded_higgs):
        # Rows not divisible by ranks: shard padding/trimming must round-trip.
        x = encoded_higgs["x_test"][:101]
        predictor = StreamingPredictor(
            trained_network, batch_size=16, backend=DistributedBackend(n_ranks=4)
        )
        assert np.array_equal(predictor.predict_stream(x), trained_network.predict(x))


class TestStreamingMemory:
    def test_workspace_independent_of_input_length(self, trained_network, encoded_higgs):
        x = encoded_higgs["x_test"]
        predictor = StreamingPredictor(trained_network, batch_size=128)
        predictor.predict_stream(x[:256])
        before = predictor.workspace_nbytes()
        predictor.predict_stream(np.vstack([x] * 4))
        assert predictor.workspace_nbytes() == before

    def test_peak_allocation_independent_of_input_length(self, trained_network, encoded_higgs):
        x = encoded_higgs["x_test"]
        small = np.ascontiguousarray(x[:256])
        large = np.ascontiguousarray(np.vstack([x] * 8))  # 4800 rows
        predictor = StreamingPredictor(trained_network, batch_size=128)

        def peak_bytes(data):
            predictor.predict_stream(data[:128])  # warm engines outside the trace
            tracemalloc.start()
            predictor.predict_stream(data)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return peak

        peak_small = peak_bytes(small)
        peak_large = peak_bytes(large)
        # Growth is bounded by the int64 output array plus slack — nothing
        # layer-sized scales with the input (4800 x 280 inputs alone would be
        # ~10 MB if materialised).
        output_growth = (large.shape[0] - small.shape[0]) * 8
        assert peak_large - peak_small < output_growth + 256 * 1024
        assert peak_large < 2 * 1024 * 1024

    def test_double_buffering_is_optional(self, trained_network, encoded_higgs):
        x = encoded_higgs["x_test"]
        single = StreamingPredictor(trained_network, batch_size=128)  # the default
        double = StreamingPredictor(trained_network, batch_size=128, double_buffer=True)
        assert double.workspace_nbytes() == 2 * single.workspace_nbytes()
        assert np.array_equal(single.predict_stream(x), double.predict_stream(x))


    def test_forward_only_stage_holds_two_batch_buffers(self, trained_network):
        # The lean workspace: a serving stage allocates the support and
        # activation buffers (plus, on a sparse layer, the gather scratch of
        # its layout) and none of the training-side statistics buffers.
        predictor = StreamingPredictor(trained_network, batch_size=128)
        layer = trained_network.hidden_layers[0]
        batch_buffers = 2 * 128 * layer.n_hidden_units * 8
        assert predictor.workspace_nbytes() == batch_buffers
        predictor.predict_stream(np.zeros((128, layer.input_spec.n_units)))
        gather = 128 * sum(layer.sparse_layout.n_active_units) * 8
        assert predictor.workspace_nbytes() == batch_buffers + gather


class TestHiddenTiles:
    """``hidden_tiles`` — the one tile loop ``Network``'s bulk calls share."""

    def test_tiles_are_workspace_views_in_stream_order(self, trained_network, encoded_higgs):
        x = encoded_higgs["x_test"][:300]
        predictor = StreamingPredictor(trained_network, batch_size=128)
        workspace = predictor._stages[-1].engines[0].workspace
        rows = []
        for batch, hidden in predictor.hidden_tiles(x):
            assert np.shares_memory(hidden, workspace.activations)
            assert np.array_equal(hidden, trained_network.hidden_layers[0].forward(batch.x))
            rows.append(batch.indices)
        assert np.array_equal(np.concatenate(rows), np.arange(300))
        assert [len(r) for r in rows] == [128, 128, 44]

    def test_layer_prefix(self, encoded_higgs):
        from repro.core import Network, SGDClassifier, StructuralPlasticityLayer, TrainingSchedule

        network = Network(seed=0)
        network.add(StructuralPlasticityLayer(2, 12, density=0.5, seed=1))
        network.add(StructuralPlasticityLayer(2, 6, density=1.0, seed=2))
        network.add(SGDClassifier(n_classes=2, seed=3))
        x = encoded_higgs["x_train"][:256]
        network.fit(
            x, encoded_higgs["y_train"][:256], input_spec=encoded_higgs["spec"],
            schedule=TrainingSchedule(hidden_epochs=1, classifier_epochs=1, batch_size=128),
        )
        predictor = StreamingPredictor(network, batch_size=256)
        first, second = network.hidden_layers
        (_, raw), = predictor.hidden_tiles(x, n_layers=0)
        assert raw is not None and np.array_equal(raw, x)
        (_, one), = predictor.hidden_tiles(x, n_layers=1)
        assert np.array_equal(one, first.forward(x))
        (_, both), = predictor.hidden_tiles(x)
        assert np.array_equal(both, second.forward(first.forward(x)))

    @pytest.mark.parametrize("dtype", [np.uint8, np.float32])
    def test_compact_encodings_are_converted_per_tile(self, trained_network, encoded_higgs, dtype):
        x = np.vstack([encoded_higgs["x_test"]] * 8)  # 4800 x 280
        compact = x.astype(dtype)
        predictor = StreamingPredictor(trained_network, batch_size=128)
        expected = predictor.predict_stream(x)
        tracemalloc.start()
        labels = predictor.predict_stream(compact)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert np.array_equal(labels, expected)
        # One 128-row tile is converted at a time (0.29 MB); the whole matrix
        # as float64 would be 10.8 MB.
        assert peak < 1024 * 1024

    def test_network_bulk_calls_use_a_throwaway_predictor(self, trained_network, encoded_higgs):
        # predict/evaluate must not park tile workspaces on the network: only
        # predict_stream caches its predictor.
        trained_network._serving_predictor = None
        x = encoded_higgs["x_test"]
        trained_network.predict(x)
        trained_network.evaluate(x, encoded_higgs["y_test"])
        assert trained_network._serving_predictor is None
        trained_network.predict_stream(x)
        assert trained_network._serving_predictor is not None


class TestSources:
    def test_batch_stream_source_respects_indices(self, trained_network, encoded_higgs):
        x = encoded_higgs["x_test"]
        stream = BatchStream(x, batch_size=77, shuffle=True, rng=7)
        predictor = StreamingPredictor(trained_network, batch_size=64)
        # Shuffled batches are scattered back to source order via indices.
        assert np.array_equal(predictor.predict_stream(stream), trained_network.predict(x))

    def test_batch_stream_larger_than_plan_grows_engines(self, trained_network, encoded_higgs):
        x = encoded_higgs["x_test"]
        predictor = StreamingPredictor(trained_network, batch_size=32)
        stream = BatchStream(x, batch_size=256)
        assert np.array_equal(predictor.predict_stream(stream), trained_network.predict(x))

    def test_drop_last_stream_rejected(self, trained_network, encoded_higgs):
        x = encoded_higgs["x_test"][:130]
        stream = BatchStream(x, batch_size=64, drop_last=True)
        predictor = StreamingPredictor(trained_network, batch_size=64)
        with pytest.raises(DataError):
            predictor.predict_stream(stream)

    def test_one_dimensional_input_rejected(self, trained_network):
        predictor = StreamingPredictor(trained_network, batch_size=64)
        with pytest.raises(DataError):
            predictor.predict_stream(np.zeros(280))

    def test_empty_input(self, trained_network, encoded_higgs):
        x = encoded_higgs["x_test"][:0]
        predictor = StreamingPredictor(trained_network, batch_size=64)
        assert predictor.predict_stream(x).shape == (0,)
        assert predictor.predict_proba_stream(x).shape == (0, 2)


class TestFacadesAndLifecycle:
    def test_network_facades_match(self, trained_network, encoded_higgs):
        x = encoded_higgs["x_test"]
        assert np.array_equal(
            trained_network.predict_stream(x, batch_size=128), trained_network.predict(x)
        )
        assert np.array_equal(
            trained_network.predict_proba_stream(x, batch_size=x.shape[0]),
            trained_network.predict_proba(x),
        )

    def test_facade_caches_predictor_per_config(self, trained_network, encoded_higgs):
        x = encoded_higgs["x_test"][:64]
        trained_network.predict_stream(x, batch_size=128)
        first = trained_network._serving_predictor
        trained_network.predict_stream(x, batch_size=128)
        assert trained_network._serving_predictor is first
        trained_network.predict_stream(x, batch_size=64)
        assert trained_network._serving_predictor is not first

    def test_unfitted_network_rejected(self):
        from repro.core import Network, SGDClassifier

        network = Network()
        network.add(SGDClassifier(n_classes=2))
        with pytest.raises(NotFittedError):
            StreamingPredictor(network)

    def test_backend_swap_rebuilds_stale_engines(self, trained_network, encoded_higgs):
        x = encoded_higgs["x_test"]
        predictor = StreamingPredictor(trained_network, batch_size=128)
        reference = predictor.predict_stream(x)
        predictor.backend = "parallel"
        swapped = predictor.predict_stream(x)
        assert predictor._stages[0].engines[0].backend is predictor.backend
        np.testing.assert_allclose(swapped, reference, atol=1e-10)
        predictor.backend.close()
