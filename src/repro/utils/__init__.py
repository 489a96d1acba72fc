"""Shared utilities: bit packing, seeded randomness, and statistics helpers."""

from repro.utils.bits import (
    bits_from_bytes,
    bits_from_int,
    bits_to_bytes,
    bits_to_int,
    bit_errors,
    bit_error_rate,
    hamming_distance,
    random_bits,
)
from repro.utils.rng import make_rng
from repro.utils.stats import (
    confidence_interval_mean,
    empirical_cdf,
    geometric_mean,
    percentile,
)

__all__ = [
    "bits_from_bytes",
    "bits_from_int",
    "bits_to_bytes",
    "bits_to_int",
    "bit_errors",
    "bit_error_rate",
    "hamming_distance",
    "random_bits",
    "make_rng",
    "confidence_interval_mean",
    "empirical_cdf",
    "geometric_mean",
    "percentile",
]
