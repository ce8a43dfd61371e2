"""Nearest-rank percentile and the highest-supported-percentile rule."""

import pytest

import stats


def test_nearest_rank_percentile_returns_a_sample_value():
    values = [15, 20, 35, 40, 50]
    assert stats.percentile(values, 5) == 15
    assert stats.percentile(values, 30) == 20
    assert stats.percentile(values, 40) == 20
    assert stats.percentile(values, 50) == 35
    assert stats.percentile(values, 100) == 50


def test_percentile_ignores_input_order_and_rejects_bad_input():
    assert stats.percentile([3, 1, 2], 50) == 2
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 0)


@pytest.mark.parametrize(
    "n_samples, expected",
    [
        (10, 0.0),  # nothing leaves ten samples beyond it
        (40, 75.0),  # rank 30, ten beyond
        (100, 90.0),  # rank 90, ten beyond
        (200, 95.0),
        (1000, 99.0),  # rank 990, ten beyond; p99.5 would leave five
        (2000, 99.5),
        (10000, 99.9),
    ],
)
def test_highest_supported_percentile_keeps_ten_samples_beyond(n_samples, expected):
    assert stats.highest_supported_percentile(n_samples) == expected


def test_tail_states_percentile_and_value():
    values = list(range(1, 1001))
    assert stats.tail(values) == (99.0, 990.0)
    assert stats.tail([5.0, 7.0]) == (0.0, 7.0)


def test_summarize_matches_statistics_quantiles():
    import statistics

    values = [4.0, 1.0, 3.0, 2.0, 5.0, 9.0, 7.0, 8.0, 6.0, 10.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    summary = stats.summarize(values)
    assert summary["median"] == statistics.median(values)
    assert (summary["q1"], summary["q3"], summary["n"]) == (q1, q3, 10)
    assert summary["spread"] == pytest.approx((q3 - q1) / statistics.median(values))
