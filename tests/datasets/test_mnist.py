"""Tests for the procedural digit generator."""

import numpy as np
import pytest

from repro.datasets.mnist import IMAGE_SIZE, SyntheticDigits
from repro.exceptions import DataError


class TestSyntheticDigits:
    def test_sample_shape_and_range(self):
        data = SyntheticDigits(seed=0).sample(50)
        assert data.features.shape == (50, IMAGE_SIZE * IMAGE_SIZE)
        assert data.features.min() >= 0.0
        assert data.features.max() <= 1.0

    def test_information_concentrated_in_centre(self):
        data = SyntheticDigits(seed=1, noise=0.0).sample(200)
        images = data.features.reshape(-1, IMAGE_SIZE, IMAGE_SIZE)
        variance = images.var(axis=0)
        margin = 7
        central = variance[margin:-margin, margin:-margin].mean()
        border = np.concatenate(
            [
                variance[:3, :].ravel(),
                variance[-3:, :].ravel(),
                variance[:, :3].ravel(),
                variance[:, -3:].ravel(),
            ]
        ).mean()
        assert central > 10 * (border + 1e-12)

    def test_distinct_digits_look_different(self):
        generator = SyntheticDigits(seed=2, noise=0.0, jitter=0)
        one = generator.render_digit(1)
        eight = generator.render_digit(8)
        assert np.abs(one - eight).mean() > 0.02

    def test_labels_match_requested_digits(self):
        data = SyntheticDigits(seed=3).sample(40, digits=(3, 7))
        assert set(np.unique(data.labels)) <= {0, 1}
        assert data.metadata["digits"] == [3, 7]

    def test_invalid_digit_rejected(self):
        with pytest.raises(DataError):
            SyntheticDigits(seed=0).render_digit(12)
        with pytest.raises(DataError):
            SyntheticDigits(seed=0).sample(10, digits=(3, 11))

    def test_invalid_parameters(self):
        with pytest.raises(DataError):
            SyntheticDigits(noise=-0.1)
        with pytest.raises(DataError):
            SyntheticDigits(thickness=0.0)

    def test_reproducible(self):
        a = SyntheticDigits(seed=9).sample(20)
        b = SyntheticDigits(seed=9).sample(20)
        assert np.array_equal(a.features, b.features)
