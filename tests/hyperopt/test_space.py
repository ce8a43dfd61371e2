"""Tests for the search-space specification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError, SearchError
from repro.hyperopt import (
    CategoricalParameter,
    FloatParameter,
    IntParameter,
    LogFloatParameter,
    SearchSpace,
)


class TestParameters:
    def test_float_sampling_and_clipping(self):
        param = FloatParameter(0.0, 2.0)
        assert param.sample_from_unit(0.0) == 0.0
        assert param.sample_from_unit(0.5) == 1.0
        assert param.clip(5.0) == 2.0

    def test_float_invalid_range(self):
        with pytest.raises(ConfigurationError):
            FloatParameter(1.0, 1.0)

    def test_log_float_spans_decades(self):
        param = LogFloatParameter(1e-3, 1e-1)
        assert param.sample_from_unit(0.5) == pytest.approx(1e-2)
        with pytest.raises(ConfigurationError):
            LogFloatParameter(0.0, 1.0)

    def test_int_inclusive_bounds(self):
        param = IntParameter(1, 4)
        values = {param.sample_from_unit(u) for u in np.linspace(0, 0.999, 50)}
        assert values == {1, 2, 3, 4}
        assert param.clip(10) == 4
        assert param.clip(-1) == 1

    def test_categorical(self):
        param = CategoricalParameter(["a", "b", "c"])
        assert param.sample_from_unit(0.0) == "a"
        assert param.sample_from_unit(0.99) == "c"
        with pytest.raises(ConfigurationError):
            CategoricalParameter(["only"])

    def test_mutation_stays_in_domain(self):
        rng = np.random.default_rng(0)
        float_param = FloatParameter(0.0, 1.0)
        int_param = IntParameter(1, 10)
        log_param = LogFloatParameter(1e-4, 1e-1)
        for _ in range(100):
            assert 0.0 <= float_param.mutate(0.5, rng) <= 1.0
            assert 1 <= int_param.mutate(5, rng) <= 10
            assert 1e-4 <= log_param.mutate(1e-2, rng) <= 1e-1


class TestSearchSpace:
    def _space(self):
        return SearchSpace(
            {
                "lr": LogFloatParameter(1e-4, 1e-1),
                "units": IntParameter(10, 100),
                "kind": CategoricalParameter(["a", "b"]),
            }
        )

    def test_sample_contains_all_parameters(self):
        config = self._space().sample(np.random.default_rng(0))
        assert set(config) == {"lr", "units", "kind"}

    def test_sample_from_unit_vector_length_checked(self):
        with pytest.raises(SearchError):
            self._space().sample_from_unit_vector([0.5])

    def test_mutate_requires_full_config(self):
        space = self._space()
        with pytest.raises(SearchError):
            space.mutate({"lr": 1e-2}, np.random.default_rng(0))

    def test_empty_space_rejected(self):
        with pytest.raises(ConfigurationError):
            SearchSpace({})

    def test_non_parameter_rejected(self):
        with pytest.raises(ConfigurationError):
            SearchSpace({"x": 3})


@given(
    u=st.floats(0.0, 0.999999),
    low=st.floats(-100, 0),
    span=st.floats(0.1, 100),
)
@settings(max_examples=50, deadline=None)
def test_property_float_sampling_in_bounds(u, low, span):
    param = FloatParameter(low, low + span)
    value = param.sample_from_unit(u)
    assert low <= value <= low + span


class TestSerialization:
    """from_dict builds the same space as the typed constructors."""

    def _space(self):
        return SearchSpace(
            {
                "model.density": FloatParameter(0.05, 0.6),
                "model.taupdt": LogFloatParameter(1e-3, 1e-1),
                "training.batch_size": IntParameter(32, 256),
                "model.head": CategoricalParameter(["sgd", "bcpnn"]),
            }
        )

    SPEC = {
        "model.density": {"type": "float", "low": 0.05, "high": 0.6},
        "model.taupdt": {"type": "logfloat", "low": 1e-3, "high": 1e-1},
        "training.batch_size": {"type": "int", "low": 32, "high": 256},
        "model.head": {"type": "categorical", "choices": ["sgd", "bcpnn"]},
    }

    def test_from_dict_builds_typed_parameters(self):
        space, rebuilt = self._space(), SearchSpace.from_dict(self.SPEC)
        assert list(rebuilt.parameters) == list(space.parameters)
        for orig, new in zip(space.parameters.values(), rebuilt.parameters.values()):
            assert type(orig) is type(new)

    def test_rebuilt_space_samples_identically(self):
        space = self._space()
        rebuilt = SearchSpace.from_dict(self.SPEC)
        unit = [0.3, 0.7, 0.1, 0.9]
        assert space.sample_from_unit_vector(unit) == rebuilt.sample_from_unit_vector(unit)


    def test_unknown_type_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown parameter type"):
            SearchSpace.from_dict({"x": {"type": "gaussian", "low": 0, "high": 1}})

    def test_missing_bounds_rejected_with_name(self):
        with pytest.raises(ConfigurationError, match="'x'.*missing"):
            SearchSpace.from_dict({"x": {"type": "float", "low": 0.1}})

    def test_missing_choices_rejected(self):
        with pytest.raises(ConfigurationError, match="choices"):
            SearchSpace.from_dict({"x": {"type": "categorical"}})

    def test_non_mapping_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            SearchSpace.from_dict({"x": [0.0, 1.0]})
        with pytest.raises(ConfigurationError):
            SearchSpace.from_dict("not a mapping")


class TestCategoricalMutation:
    """What the evolution strategy does to a categorical gene (``model.head``)."""

    def test_mutation_stays_among_the_choices(self):
        param = CategoricalParameter(["sgd", "bcpnn", "other"])
        rng = np.random.default_rng(0)
        values = {param.mutate("sgd", rng, scale=0.9) for _ in range(200)}
        assert values <= {"sgd", "bcpnn", "other"}
        assert values - {"sgd"}  # a high scale does switch the choice

    def test_a_switch_picks_another_choice(self):
        param = CategoricalParameter(["a", "b"])
        rng = np.random.default_rng(1)
        switched = [param.mutate("a", rng, scale=1.0) for _ in range(50)]
        assert set(switched) == {"b"}

    def test_a_small_scale_mostly_keeps_the_value(self):
        param = CategoricalParameter(["a", "b", "c"])
        rng = np.random.default_rng(2)
        kept = sum(param.mutate("a", rng, scale=0.0) == "a" for _ in range(400))
        # The switch probability is floored at 5 %.
        assert 340 <= kept < 400

    def test_mutation_is_deterministic_under_a_seed(self):
        param = CategoricalParameter(["a", "b", "c"])
        first = [param.mutate("a", np.random.default_rng(7), scale=0.5) for _ in range(3)]
        again = [param.mutate("a", np.random.default_rng(7), scale=0.5) for _ in range(3)]
        assert first == again
