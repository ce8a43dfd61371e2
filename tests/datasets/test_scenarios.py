"""Tests for the scenario registry and its seeded synthetic generators."""

import numpy as np
import pytest

from repro.config import ConfigError, DatasetSection
from repro.datasets.registry import (
    ScenarioSpec,
    SplitSpec,
    get_scenario,
    list_scenarios,
    register_scenario,
    scenario_catalog,
    unregister_scenario,
)
from repro.datasets.scenarios import (
    generate_covariate_drift,
    generate_higgs,
    generate_label_noise,
    generate_wide_sparse,
)
from repro.exceptions import ConfigurationError


class TestRegistry:
    def test_at_least_five_builtin_scenarios(self):
        names = list_scenarios()
        assert len(names) >= 5
        for expected in ("higgs", "imbalance", "label-noise", "covariate-drift", "wide-sparse"):
            assert expected in names

    def test_lookup_is_case_insensitive(self):
        assert get_scenario("HIGGS").name == "higgs"

    def test_unknown_scenario_is_pathed_config_error(self):
        with pytest.raises(ConfigError, match="dataset.scenario") as err:
            get_scenario("nope")
        assert err.value.path == "dataset.scenario"

    def test_register_and_unregister(self):
        spec = ScenarioSpec(name="custom", description="test", generate=generate_higgs)
        register_scenario(spec)
        try:
            assert get_scenario("custom") is spec
            with pytest.raises(ConfigurationError, match="already registered"):
                register_scenario(spec)
        finally:
            unregister_scenario("custom")
        assert "custom" not in list_scenarios()

    def test_default_config_is_a_deep_copy(self):
        spec = get_scenario("imbalance")
        one = spec.default_config()
        one["dataset"]["params"]["signal_fraction"] = 0.9
        assert spec.default_config()["dataset"]["params"]["signal_fraction"] == 0.1

    def test_catalog_lists_every_scenario(self):
        catalog = scenario_catalog()
        assert [entry["name"] for entry in catalog] == list_scenarios()
        for entry in catalog:
            assert entry["description"]
            assert entry["split"]

    def test_split_spec_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError, match="split kind"):
            SplitSpec(kind="random")


class TestGeneratorDeterminism:
    """Fixed seed -> identical bytes, for every generator (test-enforced)."""

    @pytest.mark.parametrize(
        "generate",
        [generate_higgs, generate_label_noise, generate_covariate_drift, generate_wide_sparse],
        ids=lambda f: f.__name__,
    )
    def test_bitwise_deterministic_under_fixed_seed(self, generate):
        a = generate(600, seed=42)
        b = generate(600, seed=42)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_different_seeds_differ(self):
        a = generate_wide_sparse(600, seed=1)
        b = generate_wide_sparse(600, seed=2)
        assert not np.array_equal(a.features, b.features)

    def test_prepare_is_bitwise_deterministic(self):
        spec = get_scenario("imbalance")
        section = DatasetSection(
            scenario="imbalance", n_events=800, params={"signal_fraction": 0.1}
        )
        d1 = spec.prepare(section, seed=7)
        d2 = spec.prepare(section, seed=7)
        assert np.array_equal(d1.x_train, d2.x_train)
        assert np.array_equal(d1.y_train, d2.y_train)
        assert np.array_equal(d1.x_test, d2.x_test)


    def test_higgs_scenario_equals_the_flag_path(self):
        """``repro run`` (scenario) and ``repro train`` (flags) encode the same bytes."""
        from repro.experiments.higgs_pipeline import prepare_higgs_data

        section = DatasetSection(scenario="higgs", n_events=900, test_fraction=0.25)
        via_scenario = get_scenario("higgs").prepare(section, seed=5)
        via_flags = prepare_higgs_data(n_events=900, test_fraction=0.25, seed=5)
        for name in ("x_train", "y_train", "x_test", "y_test"):
            ours, theirs = getattr(via_scenario, name), getattr(via_flags, name)
            assert ours.dtype == theirs.dtype
            assert np.array_equal(ours, theirs)
        assert via_scenario.x_train.dtype == via_scenario.x_test.dtype == np.uint8
        assert via_scenario.input_spec == via_flags.input_spec
        assert np.array_equal(via_scenario.encoder.edges, via_flags.encoder.edges)


class TestGeneratorSemantics:
    def test_imbalance_ratio_respected(self):
        data = generate_higgs(4000, seed=0, signal_fraction=0.1)
        positives = data.labels.mean()
        assert 0.05 < positives < 0.15

    def test_label_noise_flips_about_the_requested_fraction(self):
        clean = generate_higgs(3000, seed=5)
        noisy = generate_label_noise(3000, seed=5, label_noise=0.2)
        flipped = (clean.labels != noisy.labels).mean()
        assert 0.12 < flipped < 0.28
        assert noisy.metadata["n_flipped"] == int((clean.labels != noisy.labels).sum())

    def test_label_noise_domain(self):
        with pytest.raises(Exception):
            generate_label_noise(500, seed=0, label_noise=0.7)

    def test_covariate_drift_shifts_late_events(self):
        data = generate_covariate_drift(2000, seed=3, drift_strength=1.0)
        early = data.features[:200].mean(axis=0)
        late = data.features[-200:].mean(axis=0)
        # The drift adds up to one column-std to the last events.
        assert np.mean(late - early) > 0.3

    def test_covariate_drift_scenario_splits_sequentially(self):
        spec = get_scenario("covariate-drift")
        assert spec.split.kind == "sequential"
        section = DatasetSection(scenario="covariate-drift", n_events=1000)
        data = spec.prepare(section, seed=0)
        n_total = len(data.y_train) + len(data.y_test)
        assert n_total == 1000
        assert len(data.y_test) == 200  # test_fraction 0.2, taken from the end

    def test_wide_sparse_shape_and_signal(self):
        data = generate_wide_sparse(
            1500, seed=0, n_features=40, n_informative=8, class_separation=2.0
        )
        assert data.features.shape == (1500, 40)
        # Informative columns separate the classes; noise columns do not.
        split = np.abs(
            data.features[data.labels == 1].mean(axis=0)
            - data.features[data.labels == 0].mean(axis=0)
        )
        assert split[:8].mean() > 3 * split[8:].mean()

    def test_wide_sparse_rejects_bad_dimensions(self):
        with pytest.raises(Exception):
            generate_wide_sparse(500, seed=0, n_features=10, n_informative=20)

    def test_bad_generator_params_become_pathed_config_error(self):
        spec = get_scenario("higgs")
        section = DatasetSection(scenario="higgs", n_events=500, params={"bogus_knob": 1})
        with pytest.raises(ConfigError, match="dataset.params") as err:
            spec.prepare(section, seed=0)
        assert err.value.path == "dataset.params"
