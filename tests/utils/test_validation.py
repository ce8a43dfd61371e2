"""Tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, DataError
from repro.utils.validation import (
    check_array,
    check_fraction,
    check_labels,
    check_positive_int,
    check_same_length,
)


class TestCheckArray:
    def test_basic_conversion(self):
        out = check_array([[1, 2], [3, 4]])
        assert out.dtype == np.float64
        assert out.flags["C_CONTIGUOUS"]

    def test_ndim_enforced(self):
        with pytest.raises(DataError):
            check_array([1.0, 2.0], ndim=2)

    def test_empty_rejected_by_default(self):
        with pytest.raises(DataError):
            check_array(np.empty((0, 3)))

    def test_empty_allowed_when_requested(self):
        out = check_array(np.empty((0, 3)), allow_empty=True)
        assert out.shape == (0, 3)

    def test_nan_rejected(self):
        with pytest.raises(DataError):
            check_array([[1.0, np.nan]])

    def test_inf_rejected(self):
        with pytest.raises(DataError):
            check_array([[np.inf, 1.0]])

    def test_copy_flag(self):
        original = np.ones((2, 2))
        copied = check_array(original, copy=True)
        copied[0, 0] = 5.0
        assert original[0, 0] == 1.0

    def test_unconvertible_rejected(self):
        with pytest.raises(DataError):
            check_array([["a", "b"]])


class TestScalarValidators:
    def test_positive_int_ok(self):
        assert check_positive_int(3, "x") == 3

    def test_positive_int_minimum(self):
        assert check_positive_int(0, "x", minimum=0) == 0
        with pytest.raises(ConfigurationError):
            check_positive_int(0, "x", minimum=1)

    def test_positive_int_rejects_bool_and_float(self):
        with pytest.raises(ConfigurationError):
            check_positive_int(True, "x")
        with pytest.raises(ConfigurationError):
            check_positive_int(2.5, "x")

    def test_fraction_bounds(self):
        assert check_fraction(0.5, "f") == 0.5
        assert check_fraction(0, "f") == 0.0
        assert check_fraction(1, "f") == 1.0
        with pytest.raises(ConfigurationError):
            check_fraction(1.2, "f")
        with pytest.raises(ConfigurationError):
            check_fraction(-0.1, "f")

    def test_fraction_exclusive_bounds(self):
        with pytest.raises(ConfigurationError):
            check_fraction(0.0, "f", inclusive_low=False)
        with pytest.raises(ConfigurationError):
            check_fraction(1.0, "f", inclusive_high=False)

    def test_fraction_non_numeric(self):
        with pytest.raises(ConfigurationError):
            check_fraction("half", "f")


class TestLabels:
    def test_int_labels_pass(self):
        out = check_labels([0, 1, 2, 1])
        assert out.dtype == np.int64

    def test_float_integral_labels_cast(self):
        assert check_labels(np.array([0.0, 1.0])).dtype == np.int64

    def test_float_fractional_rejected(self):
        with pytest.raises(DataError):
            check_labels([0.5, 1.0])

    def test_negative_rejected(self):
        with pytest.raises(DataError):
            check_labels([-1, 0])

    def test_n_classes_bound(self):
        with pytest.raises(DataError):
            check_labels([0, 3], n_classes=3)

    def test_2d_rejected(self):
        with pytest.raises(DataError):
            check_labels([[0, 1]])


class TestSameLength:
    def test_matching(self):
        a, b = check_same_length(np.zeros(3), np.ones(3))
        assert a.shape[0] == b.shape[0] == 3

    def test_mismatch(self):
        with pytest.raises(DataError):
            check_same_length(np.zeros(3), np.ones(4), names=("a", "b"))

    def test_empty_call(self):
        assert check_same_length() == ()
