"""CRC-32 tests: known vectors, error detection, bit-level helpers.

The framing layer's zlib CRC is checked against the table-driven byte
loop kept in ``kernel_oracles`` as an independent reference.
"""

import zlib

import numpy as np
from hypothesis import given, strategies as st

from kernel_oracles import crc32, crc32_bits
from repro.phy.crc import append_crc32, crc32_check, crc32_check_rows
from repro.utils.bits import bits_from_bytes


class TestKnownVectors:
    def test_standard_check_value(self):
        # The canonical CRC-32 test vector.
        assert crc32(b"123456789") == 0xCBF43926
        framed = append_crc32(bits_from_bytes(b"123456789"))
        assert np.array_equal(framed[-32:],
                              bits_from_bytes(0xCBF43926.to_bytes(4, "big")))

    def test_empty(self):
        assert crc32(b"") == 0x00000000
        assert not append_crc32(np.zeros(0, np.uint8)).any()

    def test_matches_zlib(self):
        for data in (b"hello", b"\x00" * 16, bytes(range(100))):
            assert crc32(data) == zlib.crc32(data)
            assert np.array_equal(append_crc32(bits_from_bytes(data))[-32:],
                                  crc32_bits(bits_from_bytes(data)))


class TestBitLevel:
    def test_append_and_check(self):
        bits = np.array([1, 0, 1, 1, 0, 0, 1, 0] * 4, dtype=np.uint8)
        framed = append_crc32(bits)
        assert framed.size == bits.size + 32
        assert crc32_check(framed)

    def test_single_bit_error_detected(self, rng):
        bits = rng.integers(0, 2, 64, dtype=np.uint8)
        framed = append_crc32(bits)
        for position in (0, 17, framed.size - 1):
            corrupted = framed.copy()
            corrupted[position] ^= 1
            assert not crc32_check(corrupted)

    def test_append_keeps_payload_as_prefix(self):
        bits = np.array([1, 1, 0, 0] * 8, dtype=np.uint8)
        framed = append_crc32(bits)
        assert crc32_check(framed) and np.array_equal(framed[:-32], bits)

    def test_too_short_rejected(self):
        # Fewer than 32 bits cannot hold a checksum: the check fails.
        assert not crc32_check(np.zeros(16, dtype=np.uint8))
        assert not crc32_check_rows(np.zeros((3, 31), dtype=np.uint8)).any()

    @given(st.lists(st.integers(0, 1), min_size=8, max_size=200))
    def test_roundtrip_property(self, bits):
        framed = append_crc32(np.array(bits, dtype=np.uint8))
        assert crc32_check(framed)
        assert np.array_equal(framed[-32:], crc32_bits(bits))

    @given(st.lists(st.integers(0, 1), min_size=8, max_size=100),
           st.integers(min_value=0, max_value=10_000))
    def test_burst_errors_detected(self, bits, seed):
        """Any burst of up to 32 flipped bits must be caught."""
        framed = append_crc32(np.array(bits, dtype=np.uint8))
        rng = np.random.default_rng(seed)
        start = int(rng.integers(0, framed.size))
        length = int(rng.integers(1, min(32, framed.size - start) + 1))
        corrupted = framed.copy()
        corrupted[start:start + length] ^= 1
        if not np.array_equal(corrupted, framed):
            assert not crc32_check(corrupted)

    def test_non_byte_aligned_payloads(self):
        bits = np.array([1, 0, 1], dtype=np.uint8)
        assert np.array_equal(append_crc32(bits)[-32:], crc32_bits(bits))
        assert crc32_check(append_crc32(bits))
