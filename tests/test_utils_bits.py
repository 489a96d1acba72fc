"""Unit and property tests for bit packing utilities."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.utils.bits import (
    as_bit_array,
    bit_error_rate,
    bit_errors,
    bits_from_bytes,
    bits_from_int,
    bits_to_bytes,
    bits_to_int,
    hamming_distance,
    random_bits,
)

import kernel_oracles


class TestBitArrays:
    def test_as_bit_array_accepts_lists(self):
        arr = as_bit_array([1, 0, 1])
        assert arr.dtype == np.uint8
        assert arr.tolist() == [1, 0, 1]

    def test_as_bit_array_rejects_non_binary(self):
        with pytest.raises(ConfigurationError):
            as_bit_array([0, 2, 1])

    def test_empty_array_allowed(self):
        assert as_bit_array([]).size == 0


class TestByteConversion:
    def test_msb_first(self):
        assert bits_from_bytes(b"\x80").tolist() == [1, 0, 0, 0, 0, 0, 0, 0]
        assert bits_from_bytes(b"\x01").tolist() == [0, 0, 0, 0, 0, 0, 0, 1]

    def test_roundtrip_known_bytes(self):
        data = bytes(range(256))
        assert bits_to_bytes(bits_from_bytes(data)) == data

    def test_bits_to_bytes_rejects_partial_bytes(self):
        with pytest.raises(ConfigurationError):
            bits_to_bytes([1, 0, 1])

    @given(st.binary(min_size=0, max_size=64))
    def test_roundtrip_property(self, data):
        assert bits_to_bytes(bits_from_bytes(data)) == data


class TestIntConversion:
    def test_known_value(self):
        assert bits_from_int(5, 4).tolist() == [0, 1, 0, 1]
        assert bits_to_int([0, 1, 0, 1]) == 5

    def test_overflow_rejected(self):
        with pytest.raises(ConfigurationError):
            bits_from_int(16, 4)

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            bits_from_int(-1, 4)

    @given(st.integers(min_value=0, max_value=2**20 - 1))
    def test_roundtrip_property(self, value):
        assert bits_to_int(bits_from_int(value, 20)) == value


class TestDistances:
    def test_hamming_known(self):
        assert hamming_distance([1, 0, 1], [1, 1, 1]) == 1

    def test_hamming_requires_equal_length(self):
        with pytest.raises(ConfigurationError):
            hamming_distance([1], [1, 0])

    def test_bit_errors_alias(self):
        assert bit_errors([0, 0], [1, 1]) == 2

    def test_ber_empty_is_zero(self):
        assert bit_error_rate([], []) == 0.0

    def test_ber_half(self):
        assert bit_error_rate([0, 0, 1, 1], [0, 1, 1, 0]) == 0.5

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=100))
    def test_ber_self_is_zero(self, bits):
        assert bit_error_rate(bits, bits) == 0.0


class TestRandomBits:
    def test_reproducible(self):
        a = random_bits(100, np.random.default_rng(7))
        b = random_bits(100, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_roughly_balanced(self, rng):
        bits = random_bits(10_000, rng)
        assert 0.45 < bits.mean() < 0.55

    def test_negative_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            random_bits(-1, rng)


def outcome(fn, value):
    """What *fn* does with *value*: its result, or its exception type."""
    try:
        return fn(value)
    except Exception as exc:  # the exception type is the outcome
        return type(exc)


# Bit-like inputs, invalid ones included: values up to 3, 2-D lists,
# bools, floats and several integer dtypes.
bit_inputs = st.one_of(
    st.lists(st.integers(0, 3), max_size=80),
    st.lists(st.integers(0, 1), max_size=80),
    st.lists(st.lists(st.integers(0, 1), min_size=3, max_size=3),
             max_size=10),
    st.lists(st.booleans(), max_size=80),
    st.lists(st.sampled_from([0.0, 1.0, 2.0]), max_size=20),
    st.tuples(st.lists(st.integers(0, 2), max_size=80),
              st.sampled_from([np.uint8, np.int64, np.int8])).map(
        lambda case: np.array(case[0], dtype=case[1])),
)


class TestHelpersEqualOriginals:
    @given(bit_inputs)
    def test_as_bit_array(self, bits):
        got = outcome(as_bit_array, bits)
        want = outcome(kernel_oracles.bits_as_bit_array, bits)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        else:
            assert got is want is ConfigurationError

    @given(bit_inputs)
    def test_bits_to_int(self, bits):
        got = outcome(bits_to_int, bits)
        want = outcome(kernel_oracles.bits_to_int, bits)
        assert got == want
        assert type(got) is type(want)
