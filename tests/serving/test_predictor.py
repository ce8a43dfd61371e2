"""Tests for the streaming inference subsystem (``repro.serving``).

The central contracts:

* ``predict_stream`` matches ``Network.predict`` **bit-for-bit** on the
  NumPy backend (and within each backend's declared precision elsewhere);
* peak allocation while streaming is O(batch), independent of input length.
"""

import tracemalloc

import numpy as np
import pytest

from repro.datasets.stream import BatchStream
from repro.exceptions import DataError, NotFittedError
from repro.serving import StreamingPredictor, predict_proba_stream, predict_stream

#: (backend name, absolute tolerance implied by its declared precision) —
#: mirrors tests/engine/test_execution.py.
BACKEND_TOLERANCES = [
    ("float32", 1e-4),
    ("float16", 5e-2),
    ("posit16", 5e-2),
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
        assert agreement >= 0.98

    def test_every_registered_backend_streams(self, trained_network, encoded_higgs):
        # A dataset larger than any single workspace must stream through
        # every name in the registry.
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
        assert predictor._stages[0].engine.backend is network.hidden_layers[0].backend
        assert predictor.backend.name == "lowprec-float32"
        np.testing.assert_allclose(
            predictor.predict_proba_stream(x), network.predict_proba(x), atol=1e-12
        )
        assert np.array_equal(predictor.predict_stream(x), network.predict(x))


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

    def test_forward_only_stage_holds_one_batch_buffer(self, trained_network):
        # The lean workspace: a serving stage's softmax runs in place over its
        # support buffer, so it holds that one buffer (plus, on a sparse
        # layer, the gather scratch of its layout) and none of the
        # training-side activation or statistics buffers.
        predictor = StreamingPredictor(trained_network, batch_size=128)
        layer = trained_network.hidden_layers[0]
        batch_buffers = 128 * layer.n_hidden_units * 8
        assert predictor.workspace_nbytes() == batch_buffers
        workspace = predictor._stages[0].engine.workspace
        assert workspace.activations is workspace.support
        predictor.predict_stream(np.zeros((128, layer.input_spec.n_units)))
        gather = 128 * sum(layer.sparse_layout.n_active_units) * 8
        assert predictor.workspace_nbytes() == batch_buffers + gather


class TestHiddenTiles:
    """``hidden_tiles`` — the one tile loop ``Network``'s bulk calls share."""

    def test_tiles_are_workspace_views_in_stream_order(self, trained_network, encoded_higgs):
        x = encoded_higgs["x_test"][:300]
        predictor = StreamingPredictor(trained_network, batch_size=128)
        workspace = predictor._stages[-1].engine.workspace
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

    @pytest.mark.parametrize("dtype", [np.uint8, np.bool_, np.float32])
    def test_tiles_carry_the_stored_dtype(self, trained_network, encoded_higgs, dtype):
        """Rows reach each tile in the dtype they are stored in; the first
        layer widens one tile at a time, so the labels equal float64 input's."""
        x = encoded_higgs["x_test"][:300]
        stored = x.astype(dtype)
        predictor = StreamingPredictor(trained_network, batch_size=128)
        raw = [tile for _, tile in predictor.hidden_tiles(stored, n_layers=0)]
        assert [tile.dtype for tile in raw] == [np.dtype(dtype)] * 3
        assert np.array_equal(
            predictor.predict_stream(stored), trained_network.predict(x.astype(np.float64))
        )

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

    def test_fewer_rows_than_a_tile(self, trained_network, encoded_higgs):
        x = encoded_higgs["x_test"][:3]
        predictor = StreamingPredictor(trained_network, batch_size=64)
        assert np.array_equal(predictor.predict_stream(x), trained_network.predict(x))
        np.testing.assert_array_equal(
            predictor.predict_proba_stream(x), trained_network.predict_proba(x)
        )

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

    @pytest.mark.parametrize("option", ["pipeline", "double_buffer", "comm"])
    def test_one_execution_path(self, trained_network, option):
        """The plain tile loop is the only schedule: no stage pipelining, no
        second workspace per layer and no rank sharding, on the predictor and
        the one-shot helpers alike."""
        with pytest.raises(TypeError, match=option):
            StreamingPredictor(trained_network, batch_size=64, **{option: True})
        for helper in (predict_stream, predict_proba_stream):
            with pytest.raises(TypeError, match=option):
                helper(trained_network, np.zeros((1, 280)), **{option: True})

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
        predictor.backend = "float32"
        swapped = predictor.predict_stream(x)
        assert predictor._stages[0].engine.backend is predictor.backend
        fresh = StreamingPredictor(trained_network, batch_size=128, backend="float32")
        assert np.array_equal(swapped, fresh.predict_stream(x))
        assert not np.array_equal(
            predictor.predict_proba_stream(x), trained_network.predict_proba(x)
        )


def _small_network(encoded_higgs, seed=3):
    from repro.core import BCPNNClassifier, Network, StructuralPlasticityLayer, TrainingSchedule

    x = encoded_higgs["x_train"][:256]
    y = encoded_higgs["y_train"][:256]
    network = Network(seed=seed)
    network.add(StructuralPlasticityLayer(2, 5, density=0.4, seed=seed + 1))
    network.add(BCPNNClassifier(n_classes=2))
    network.fit(
        x, y, input_spec=encoded_higgs["spec"],
        schedule=TrainingSchedule(hidden_epochs=1, classifier_epochs=1, batch_size=64),
    )
    return network, x, y


class TestCachedPredictor:
    """``Network.predict_stream`` keeps one predictor across calls; it must
    only ever serve the network's current model."""

    def test_labels_and_probabilities_share_the_cached_predictor(self, encoded_higgs):
        network, x, _ = _small_network(encoded_higgs)
        labels = network.predict_stream(x, batch_size=64)
        cached = network._serving_predictor
        proba = network.predict_proba_stream(x, batch_size=64)
        assert network._serving_predictor is cached
        assert np.array_equal(labels, network.predict(x))
        np.testing.assert_allclose(proba, network.predict_proba(x), atol=1e-12)

    def test_refit_refreshes_the_cached_predictor(self, encoded_higgs):
        from repro.core import TrainingSchedule

        network, x, y = _small_network(encoded_higgs)
        before = network.predict_proba_stream(x, batch_size=64)
        network.fit(
            x, y, input_spec=encoded_higgs["spec"],
            schedule=TrainingSchedule(hidden_epochs=2, classifier_epochs=1, batch_size=64),
        )
        after = network.predict_proba_stream(x, batch_size=64)
        assert not np.array_equal(before, after)
        np.testing.assert_allclose(after, network.predict_proba(x), atol=1e-12)

    def test_mask_change_refreshes_the_cached_predictor(self, encoded_higgs):
        """``set_density`` swaps the mask without retraining; the next
        streamed call must serve the new receptive field."""
        network, x, _ = _small_network(encoded_higgs)
        before = network.predict_proba_stream(x, batch_size=64)
        network.hidden_layers[0].set_density(0.8)
        after = network.predict_proba_stream(x, batch_size=64)
        assert not np.array_equal(before, after)
        np.testing.assert_allclose(after, network.predict_proba(x), atol=1e-12)

    def test_two_loaded_models_never_share_cached_weights(self, encoded_higgs, tmp_path):
        """Two models loaded from disk start from identical refresh
        counters; each must still serve its own weights."""
        from repro.core import load_network, save_network

        network_a, x, _ = _small_network(encoded_higgs, seed=3)
        network_b, _, _ = _small_network(encoded_higgs, seed=9)
        loaded_a = load_network(save_network(network_a, tmp_path / "a.npz"))
        loaded_b = load_network(save_network(network_b, tmp_path / "b.npz"))
        out_a = loaded_a.predict_proba_stream(x, batch_size=64)
        out_b = loaded_b.predict_proba_stream(x, batch_size=64)
        assert not np.array_equal(out_a, out_b)
        np.testing.assert_allclose(out_a, network_a.predict_proba(x), atol=1e-12)
        np.testing.assert_allclose(out_b, network_b.predict_proba(x), atol=1e-12)

    def test_failed_call_leaves_the_predictor_usable(self, encoded_higgs):
        network, x, _ = _small_network(encoded_higgs)
        expected = network.predict(x)
        network.predict_stream(x, batch_size=64)
        with pytest.raises(DataError, match="columns"):
            network.predict_stream(np.ones((8, 3)), batch_size=64)
        assert np.array_equal(network.predict_stream(x, batch_size=64), expected)
