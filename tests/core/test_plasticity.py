"""Tests for structural plasticity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import StructuralPlasticity
from repro.exceptions import ConfigurationError, DataError


class TestInitialisation:
    def test_mask_density_respected(self):
        plasticity = StructuralPlasticity(20, 4, density=0.3, seed=0)
        assert plasticity.connections_per_hcu == 6
        assert np.array_equal(plasticity.mask.sum(axis=0), [6, 6, 6, 6])

    def test_zero_density_gives_empty_masks(self):
        plasticity = StructuralPlasticity(10, 2, density=0.0, seed=0)
        assert plasticity.connections_per_hcu == 0
        assert plasticity.mask.sum() == 0

    def test_full_density(self):
        plasticity = StructuralPlasticity(10, 2, density=1.0, seed=0)
        assert np.all(plasticity.mask == 1.0)

    def test_tiny_density_keeps_at_least_one_connection(self):
        plasticity = StructuralPlasticity(10, 2, density=0.01, seed=0)
        assert plasticity.connections_per_hcu == 1

    def test_invalid_arguments(self):
        with pytest.raises(ConfigurationError):
            StructuralPlasticity(10, 2, hysteresis=0.5)
        with pytest.raises(Exception):
            StructuralPlasticity(0, 2)


class TestUpdate:
    def test_swaps_toward_high_information_inputs(self):
        rng_seed = 3
        plasticity = StructuralPlasticity(10, 1, density=0.3, swap_fraction=1.0, seed=rng_seed)
        # Scores: the last three input hypercolumns are the informative ones.
        scores = np.zeros((10, 1))
        scores[-3:, 0] = 1.0
        for _ in range(5):
            plasticity.update(scores)
        active = np.nonzero(plasticity.mask[:, 0])[0]
        assert set(active) == {7, 8, 9}

    def test_connection_count_is_conserved(self):
        plasticity = StructuralPlasticity(15, 3, density=0.4, seed=1)
        rng = np.random.default_rng(0)
        for _ in range(10):
            plasticity.update(rng.random((15, 3)))
            assert np.array_equal(plasticity.mask.sum(axis=0), [6, 6, 6])

    def test_no_swaps_when_active_connections_already_best(self):
        plasticity = StructuralPlasticity(6, 1, density=0.5, seed=2)
        scores = np.zeros((6, 1))
        scores[plasticity.mask[:, 0] > 0.5, 0] = 1.0  # active ones score high
        assert plasticity.update(scores) == 0

    def test_hysteresis_blocks_marginal_swaps(self):
        plasticity = StructuralPlasticity(6, 1, density=0.5, hysteresis=2.0, seed=3)
        scores = np.full((6, 1), 1.0)
        scores[plasticity.mask[:, 0] <= 0.5, 0] = 1.5  # silent better, but < 2x
        assert plasticity.update(scores) == 0

    def test_score_shape_validated(self):
        plasticity = StructuralPlasticity(6, 2, density=0.5, seed=0)
        with pytest.raises(DataError):
            plasticity.update(np.zeros((5, 2)))


@given(
    n_inputs=st.integers(2, 30),
    n_hcus=st.integers(1, 5),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 100),
    rounds=st.integers(1, 5),
)
@settings(max_examples=40, deadline=None)
def test_property_active_count_invariant_under_updates(n_inputs, n_hcus, density, seed, rounds):
    """The number of active connections per HCU never changes, whatever the scores."""
    plasticity = StructuralPlasticity(n_inputs, n_hcus, density=density, seed=seed)
    expected = plasticity.connections_per_hcu
    rng = np.random.default_rng(seed)
    for _ in range(rounds):
        plasticity.update(rng.normal(size=(n_inputs, n_hcus)))
        assert np.all(plasticity.mask.sum(axis=0) == expected)
        assert set(np.unique(plasticity.mask)) <= {0.0, 1.0}
