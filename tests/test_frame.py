"""Frame building/parsing tests: header fields, CRC, retransmissions."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, FrameError
from repro.phy.constellation import BPSK
from repro.phy.crc import crc32_check
from repro.phy.frame import (
    HEADER_BITS,
    Frame,
    FrameHeader,
    build_frame_bits,
    extract_bits,
)
from repro.utils.bits import random_bits


class TestHeader:
    def test_roundtrip(self):
        h = FrameHeader(src=7, dst=3, seq=555, retry=True,
                        modulation="qam16", payload_bits=1200)
        assert FrameHeader.from_bits(h.to_bits()) == h

    def test_width(self):
        h = FrameHeader(1, 2, 3, False, "bpsk", 10)
        assert h.to_bits().size == HEADER_BITS

    def test_field_range_checks(self):
        with pytest.raises(ConfigurationError):
            FrameHeader(src=256, dst=0, seq=0, retry=False,
                        modulation="bpsk", payload_bits=10)
        with pytest.raises(ConfigurationError):
            FrameHeader(src=0, dst=0, seq=4096, retry=False,
                        modulation="bpsk", payload_bits=10)

    def test_unknown_modulation(self):
        with pytest.raises(ConfigurationError):
            FrameHeader(0, 0, 0, False, "fsk", 10)

    def test_with_retry(self):
        h = FrameHeader(1, 0, 9, False, "bpsk", 64)
        assert h.with_retry().retry is True
        assert h.with_retry().seq == h.seq

    @given(src=st.integers(0, 255), seq=st.integers(0, 4095),
           retry=st.booleans(), payload=st.integers(0, 65535))
    @settings(max_examples=50)
    def test_roundtrip_property(self, src, seq, retry, payload):
        h = FrameHeader(src, 0, seq, retry, "qpsk", payload)
        assert FrameHeader.from_bits(h.to_bits()) == h


class TestFrameBits:
    def test_build_parse_roundtrip(self, rng):
        payload = random_bits(100, rng)
        header = FrameHeader(1, 0, 5, False, "bpsk", 100)
        bits = build_frame_bits(header, payload)
        frame = Frame.build(header, payload)
        decoded, ok, parsed_header = extract_bits(frame.symbols, BPSK)
        assert ok
        assert parsed_header == header
        assert np.array_equal(decoded, bits)
        assert np.array_equal(decoded[HEADER_BITS:-32], payload)

    def test_length_mismatch_rejected(self, rng):
        header = FrameHeader(1, 0, 5, False, "bpsk", 100)
        with pytest.raises(FrameError):
            build_frame_bits(header, random_bits(99, rng))

    def test_corruption_fails_crc(self, rng):
        payload = random_bits(64, rng)
        header = FrameHeader(1, 0, 5, False, "bpsk", 64)
        bits = build_frame_bits(header, payload)
        assert crc32_check(bits)
        bits[10] ^= 1
        assert not crc32_check(bits)


class TestFrame:
    def test_symbol_layout_bpsk(self, rng, preamble):
        frame = Frame.make(random_bits(96, rng))
        expected = len(preamble) + HEADER_BITS + 96 + 32
        assert frame.n_symbols == expected

    def test_symbol_layout_qam16(self, rng, preamble):
        frame = Frame.make(random_bits(96, rng), modulation="qam16")
        expected = len(preamble) + HEADER_BITS + (96 + 32) // 4
        assert frame.n_symbols == expected

    def test_starts_with_preamble(self, rng, preamble):
        frame = Frame.make(random_bits(64, rng))
        assert np.array_equal(frame.symbols[:len(preamble)],
                              preamble.symbols)

    def test_retransmission_sets_retry(self, rng):
        frame = Frame.make(random_bits(64, rng))
        retry = frame.retransmission()
        assert retry.header.retry is True
        assert np.array_equal(retry.payload, frame.payload)

    def test_body_bits_crc_valid(self, rng):
        frame = Frame.make(random_bits(64, rng))
        assert crc32_check(frame.body_bits)
