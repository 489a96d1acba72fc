"""Lane-axis bit extraction equals one-row calls and the scalar pipeline.

``extract_rows`` is the one implementation of demodulate → descramble →
CRC-32 → header parse that both ZigZag decoders call: the scalar decoder
on one row, the batched pair decoder on a whole signature group. Each
row of a stack must decode exactly as that row alone does, and as the
framing layer's own one-packet helpers say it should.
"""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.phy.constellation import BPSK, QPSK
from repro.phy.crc import append_crc32, strip_crc32
from repro.phy.frame import (
    HEADER_BITS,
    Frame,
    FrameHeader,
    scramble_bits,
)
from repro.phy.preamble import default_preamble
from repro.zigzag.decoder import extract_bits, extract_rows
from repro.zigzag.engine import PacketSpec

PREAMBLE = default_preamble()
PRE_LEN = len(PREAMBLE)


def _noisy(symbols, rng, sigma):
    return symbols + sigma * (rng.standard_normal(symbols.shape)
                              + 1j * rng.standard_normal(symbols.shape))


def _frames(modulation, rng, n=6):
    """Rows of one frame length; every other row has one payload symbol
    flipped, so it fails CRC."""
    frames = [Frame.make(rng.integers(0, 2, 96), seq=i, modulation=modulation)
              for i in range(n)]
    soft = np.stack([f.symbols for f in frames])
    soft[1::2, PRE_LEN + HEADER_BITS + 5] *= -1
    return _noisy(soft, rng, 0.1)


def _bad_modulation_rows(rng, n=3):
    """BPSK frames whose header carries modulation id 7 (none such)."""
    rows = []
    for seq in range(n):
        header_bits = FrameHeader(1, 0, seq, False, "bpsk", 64).to_bits()
        header_bits[29:32] = 1  # the 3-bit modulation id field
        body = append_crc32(np.concatenate(
            [header_bits, rng.integers(0, 2, 64).astype(np.uint8)]))
        rows.append(np.concatenate(
            [PREAMBLE.symbols, BPSK.modulate(scramble_bits(body))]))
    return _noisy(np.stack(rows), rng, 0.05)


def _reference(soft, spec):
    """The scalar pipeline, spelled out with the framing helpers."""
    header_bits = scramble_bits(
        BPSK.demodulate(soft[PRE_LEN:PRE_LEN + HEADER_BITS]))
    body_bits = scramble_bits(
        spec.body_constellation.demodulate(soft[PRE_LEN + HEADER_BITS:]),
        offset=HEADER_BITS)
    bits = np.concatenate([header_bits, body_bits])
    try:
        header = FrameHeader.from_bits(header_bits)
    except ReproError:
        header = None
    try:
        crc_ok = strip_crc32(bits)[1]
    except ReproError:
        crc_ok = False
    return bits, crc_ok, header


CASES = {
    "bpsk": lambda rng: (_frames("bpsk", rng), BPSK),
    "qpsk": lambda rng: (_frames("qpsk", rng), QPSK),
    "invalid_modulation": lambda rng: (_bad_modulation_rows(rng), BPSK),
    "under_32_bits": lambda rng: (
        _noisy(np.ones((4, PRE_LEN + 20), complex), rng, 0.5), BPSK),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_rows_equal_one_row_calls(case):
    soft, constellation = CASES[case](np.random.default_rng(7))
    spec = PacketSpec("A", soft.shape[1], constellation)
    bits, crc_ok, headers = extract_rows(soft, spec, PRE_LEN)
    assert bits.shape[0] == crc_ok.shape[0] == len(headers) == soft.shape[0]
    for row in range(soft.shape[0]):
        one_bits, one_ok, one_header = extract_bits(soft[row], spec, PRE_LEN)
        ref_bits, ref_ok, ref_header = _reference(soft[row], spec)
        assert np.array_equal(bits[row], one_bits)
        assert np.array_equal(bits[row], ref_bits)
        assert bool(crc_ok[row]) == one_ok == ref_ok
        assert headers[row] == one_header == ref_header
    if case == "invalid_modulation":
        assert headers == [None] * soft.shape[0]
        assert crc_ok.all()
    if case == "under_32_bits":
        assert not crc_ok.any()
        assert headers == [None] * soft.shape[0]
    if case in ("bpsk", "qpsk"):
        assert crc_ok.tolist() == [True, False] * (soft.shape[0] // 2)
        assert [h.modulation for h in headers] == [case] * soft.shape[0]
