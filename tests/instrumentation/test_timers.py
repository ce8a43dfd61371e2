"""Tests for the repeat timer."""

import pytest

from repro.exceptions import ConfigurationError
from repro.instrumentation import RepeatTimer


class TestRepeatTimer:
    def test_statistics_fields(self):
        stats = RepeatTimer(repeats=3, warmup=1).measure(lambda: sum(range(1000)))
        assert len(stats.samples) == 3
        assert stats.mean == pytest.approx(sum(stats.samples) / 3)
        assert stats.std >= 0

    def test_warmup_not_counted(self):
        calls = []
        RepeatTimer(repeats=2, warmup=3).measure(lambda: calls.append(1))
        assert len(calls) == 5

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            RepeatTimer(repeats=0)
        with pytest.raises(ConfigurationError):
            RepeatTimer(warmup=-1)
