"""Tests for repro.metrics.classification."""

import numpy as np
import pytest

from repro.exceptions import DataError
from repro.metrics import accuracy, log_loss


class TestAccuracy:
    def test_perfect(self):
        assert accuracy([0, 1, 1], [0, 1, 1]) == 1.0

    def test_half(self):
        assert accuracy([0, 1, 0, 1], [0, 0, 1, 1]) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            accuracy([0, 1], [0])


class TestLogLoss:
    def test_perfect_predictions(self):
        probs = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert log_loss([0, 1], probs) == pytest.approx(0.0, abs=1e-9)

    def test_uniform_predictions(self):
        probs = np.full((4, 2), 0.5)
        assert log_loss([0, 1, 0, 1], probs) == pytest.approx(np.log(2))

    def test_binary_vector_input(self):
        scores = np.array([0.9, 0.1])
        assert log_loss([1, 0], scores) == pytest.approx(-np.log(0.9), rel=1e-6)

    def test_class_outside_probabilities(self):
        with pytest.raises(DataError):
            log_loss([0, 2], np.full((2, 2), 0.5))

    def test_mismatched_lengths(self):
        with pytest.raises(DataError):
            log_loss([0, 1, 1], np.full((2, 2), 0.5))
