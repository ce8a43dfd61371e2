"""Tests for the search drivers."""

import math

import pytest

from repro.exceptions import SearchError
from repro.hyperopt import (
    CategoricalParameter,
    EvolutionarySearch,
    FloatParameter,
    HaltonSearch,
    IntParameter,
    RandomSearch,
    SearchSpace,
)


def _space():
    return SearchSpace({"x": FloatParameter(-5.0, 5.0), "y": FloatParameter(-5.0, 5.0)})


def _objective(config):
    """Concave quadratic with maximum 1.0 at (1, -2)."""
    return 1.0 - ((config["x"] - 1.0) ** 2 + (config["y"] + 2.0) ** 2) / 50.0


class TestRandomSearch:
    def test_finds_reasonable_optimum(self):
        result = RandomSearch(_space(), seed=0).optimize(_objective, n_trials=60)
        assert result.best_score > 0.8
        assert len(result) == 60
        assert set(result.best_config) == {"x", "y"}

    def test_trial_indices_sequential(self):
        result = RandomSearch(_space(), seed=1).optimize(_objective, n_trials=5)
        assert [t.index for t in result.trials] == list(range(5))

    def test_invalid_trials(self):
        with pytest.raises(SearchError):
            RandomSearch(_space()).optimize(_objective, n_trials=0)

    def test_failures_raise_by_default(self):
        def bad(config):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            RandomSearch(_space(), seed=0).optimize(bad, n_trials=3)

    def test_failures_recorded_when_ignored(self):
        calls = {"n": 0}

        def flaky(config):
            calls["n"] += 1
            if calls["n"] % 2 == 0:
                raise RuntimeError("boom")
            return _objective(config)

        result = RandomSearch(_space(), seed=0, ignore_failures=True).optimize(flaky, n_trials=6)
        assert sum(t.failed for t in result.trials) == 3
        assert result.best_score > -math.inf

    def test_all_failed_raises_on_best(self):
        def bad(config):
            raise RuntimeError("boom")

        result = RandomSearch(_space(), seed=0, ignore_failures=True).optimize(bad, n_trials=3)
        with pytest.raises(SearchError):
            _ = result.best_trial


class TestHaltonSearch:
    def test_outperforms_tiny_random_budget_on_average(self):
        result = HaltonSearch(_space(), seed=0).optimize(_objective, n_trials=40)
        assert result.best_score > 0.8


class TestEvolutionarySearch:
    def test_improves_over_generations(self):
        search = EvolutionarySearch(_space(), population_size=4, offspring_per_parent=2, seed=3)
        result = search.optimize(_objective, n_trials=40)
        first_gen_best = max(t.score for t in result.trials[:4])
        assert result.best_score >= first_gen_best
        assert result.best_score > 0.85

    def test_respects_trial_budget(self):
        search = EvolutionarySearch(_space(), population_size=3, offspring_per_parent=2, seed=0)
        result = search.optimize(_objective, n_trials=11)
        assert len(result) == 11

    def test_invalid_configuration(self):
        with pytest.raises(SearchError):
            EvolutionarySearch(_space(), population_size=0)
        with pytest.raises(SearchError):
            EvolutionarySearch(_space(), mutation_scale=0.0)


class TestSearchSpaceArgument:
    def test_requires_search_space(self):
        with pytest.raises(SearchError):
            RandomSearch({"x": FloatParameter(0, 1)})  # type: ignore[arg-type]


class TestIntegrationWithIntParameters:
    def test_mixed_space(self):
        space = SearchSpace({"n": IntParameter(1, 20), "scale": FloatParameter(0.1, 2.0)})

        def objective(config):
            return -abs(config["n"] - 12) - abs(config["scale"] - 1.0)

        result = EvolutionarySearch(space, population_size=4, seed=2).optimize(objective, 30)
        assert abs(result.best_config["n"] - 12) <= 3


class TestEvolutionOverACategoricalChoice:
    def test_the_search_finds_the_better_choice(self):
        space = SearchSpace(
            {"head": CategoricalParameter(["sgd", "bcpnn"]), "x": FloatParameter(-5.0, 5.0)}
        )

        def objective(config):
            return (1.0 if config["head"] == "bcpnn" else 0.0) - abs(config["x"] - 1.0) / 10.0

        search = EvolutionarySearch(space, population_size=3, offspring_per_parent=2, seed=4)
        result = search.optimize(objective, n_trials=30)
        assert result.best_trial.config["head"] == "bcpnn"
        assert {t.config["head"] for t in result.trials} == {"sgd", "bcpnn"}
