import pytest

from bench.stats import median, percentile


def test_median_odd_and_even():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    assert median([7.0]) == 7.0


def test_percentile_is_a_measured_value():
    values = [10.0, 20.0, 30.0, 40.0]
    assert percentile(values, 50) == 20.0
    assert percentile(values, 75) == 30.0
    assert percentile(values, 76) == 40.0
    assert percentile(values, 100) == 40.0
    assert percentile(values, 1) == 10.0


def test_empty_and_out_of_range_are_errors():
    with pytest.raises(ValueError):
        median([])
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)

