"""Small statistics helpers for the evaluation harness (CDFs, intervals)."""

from __future__ import annotations

import math
import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "empirical_cdf",
    "percentile",
    "geometric_mean",
    "confidence_interval_mean",
]


def empirical_cdf(samples) -> tuple[np.ndarray, np.ndarray]:
    """Return sorted sample values and their empirical CDF ordinates.

    The ordinates use the ``i/n`` convention so the final point is exactly 1.
    """
    values = np.sort(np.asarray(samples, dtype=float).ravel())
    if values.size == 0:
        return values, values
    fractions = np.arange(1, values.size + 1, dtype=float) / values.size
    return values, fractions


def percentile(samples, q: float) -> float:
    """The *q*-th percentile (0..100) of *samples*."""
    if not 0.0 <= q <= 100.0:
        raise ConfigurationError("q must be within [0, 100]")
    return float(np.percentile(np.asarray(samples, dtype=float), q))


def geometric_mean(samples) -> float:
    """Geometric mean of strictly positive samples."""
    values = np.asarray(samples, dtype=float)
    if values.size == 0:
        raise ConfigurationError("geometric_mean of empty sample set")
    if np.any(values <= 0):
        raise ConfigurationError("geometric_mean requires positive samples")
    return float(np.exp(np.mean(np.log(values))))


def confidence_interval_mean(samples, z: float = 1.96) -> tuple[float, float, float]:
    """Return (mean, low, high) normal-approximation CI for the sample mean."""
    values = np.asarray(samples, dtype=float).ravel()
    if values.size == 0:
        raise ConfigurationError("confidence interval of empty sample set")
    mean = float(values.mean())
    if values.size == 1:
        return mean, mean, mean
    half = z * float(values.std(ddof=1)) / math.sqrt(values.size)
    return mean, mean - half, mean + half
