"""Tests for statistics helpers (CDFs, percentiles, intervals)."""

import pytest

from repro.errors import ConfigurationError
from repro.utils.stats import (
    confidence_interval_mean,
    empirical_cdf,
    geometric_mean,
    percentile,
)


class TestEmpiricalCdf:
    def test_sorted_and_reaches_one(self):
        values, fractions = empirical_cdf([3.0, 1.0, 2.0])
        assert values.tolist() == [1.0, 2.0, 3.0]
        assert fractions[-1] == 1.0

    def test_empty(self):
        values, fractions = empirical_cdf([])
        assert values.size == 0 and fractions.size == 0


class TestPercentile:
    def test_median(self):
        assert percentile([1, 2, 3], 50) == 2.0

    def test_bounds_checked(self):
        with pytest.raises(ConfigurationError):
            percentile([1.0], 101)


class TestGeometricMean:
    def test_known(self):
        assert geometric_mean([1, 4]) == pytest.approx(2.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            geometric_mean([1.0, 0.0])

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            geometric_mean([])


class TestConfidenceInterval:
    def test_contains_mean(self):
        mean, low, high = confidence_interval_mean([1, 2, 3, 4])
        assert low <= mean <= high

    def test_single_sample_degenerate(self):
        mean, low, high = confidence_interval_mean([5.0])
        assert mean == low == high == 5.0

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            confidence_interval_mean([])
