"""Bit-level helpers used throughout the PHY and framing code.

Bits are represented as 1-D ``numpy`` arrays of dtype ``uint8`` holding the
values 0 and 1, most significant bit first within every byte / integer.
Keeping a single canonical representation avoids the classic byte-order and
bit-order bugs that plague modem code.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "as_bit_array",
    "bits_from_bytes",
    "bits_to_bytes",
    "bits_from_int",
    "bits_to_int",
    "bit_errors",
    "bit_error_rate",
    "hamming_distance",
    "random_bits",
]


def as_bit_array(bits) -> np.ndarray:
    """Coerce *bits* (sequence of 0/1) into the canonical uint8 array form.

    Raises :class:`ConfigurationError` if any element is not 0 or 1.
    """
    arr = np.asarray(bits, dtype=np.uint8).ravel()
    if arr.size and arr.max() > 1:
        raise ConfigurationError("bit arrays may contain only 0s and 1s")
    return arr


def bits_from_bytes(data: bytes | bytearray | np.ndarray) -> np.ndarray:
    """Expand *data* into a bit array, MSB-first within each byte.

    >>> bits_from_bytes(b"\\x80").tolist()
    [1, 0, 0, 0, 0, 0, 0, 0]
    """
    byte_arr = np.frombuffer(bytes(data), dtype=np.uint8)
    return np.unpackbits(byte_arr)


def bits_to_bytes(bits) -> bytes:
    """Pack a bit array (length must be a multiple of 8) back into bytes."""
    arr = as_bit_array(bits)
    if arr.size % 8 != 0:
        raise ConfigurationError(
            f"bit array length {arr.size} is not a multiple of 8"
        )
    return np.packbits(arr).tobytes()


def bits_from_int(value: int, width: int) -> np.ndarray:
    """Encode the non-negative integer *value* as *width* bits, MSB first."""
    if width <= 0:
        raise ConfigurationError("width must be positive")
    if value < 0:
        raise ConfigurationError("value must be non-negative")
    if value >= (1 << width):
        raise ConfigurationError(f"value {value} does not fit in {width} bits")
    return np.array([(value >> (width - 1 - i)) & 1 for i in range(width)],
                    dtype=np.uint8)


def bits_to_int(bits) -> int:
    """Decode an MSB-first bit array into a non-negative integer."""
    arr = as_bit_array(bits)
    # packbits pads the last byte with zeros on the right: shift them off.
    return int.from_bytes(np.packbits(arr).tobytes(), "big") \
        >> (-arr.size % 8)


def hamming_distance(a, b) -> int:
    """Number of positions at which two equal-length bit arrays differ."""
    arr_a = as_bit_array(a)
    arr_b = as_bit_array(b)
    if arr_a.size != arr_b.size:
        raise ConfigurationError(
            f"length mismatch: {arr_a.size} vs {arr_b.size}"
        )
    return int(np.count_nonzero(arr_a != arr_b))


def bit_errors(sent, received) -> int:
    """Alias for :func:`hamming_distance`, named for readability at call sites."""
    return hamming_distance(sent, received)


def bit_error_rate(sent, received) -> float:
    """Fraction of differing bits; 0.0 for empty inputs of equal length."""
    arr = as_bit_array(sent)
    if arr.size == 0:
        return 0.0
    return bit_errors(sent, received) / arr.size


def random_bits(n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw *n* i.i.d. fair bits from *rng*."""
    if n < 0:
        raise ConfigurationError("n must be non-negative")
    return rng.integers(0, 2, size=n, dtype=np.uint8)
