"""The frame codec's decode half: lane-axis extraction, padded frames,
and agreement between every receiver that calls it.

``extract_rows`` is the one implementation of demodulate → descramble →
CRC-32 → header parse: the standard decoder, SIC and both ZigZag decoders
call it, the batched pair decoder on a whole signature group. Each row of
a stack must decode exactly as that row alone does, and as the framing
rules spelled out with the table-driven reference CRC say it should.
"""

import dataclasses

import numpy as np
import pytest

from kernel_oracles import crc32_bits
from repro.errors import ReproError
from repro.phy.channel import FREQ_SPREAD, PHASE_NOISE_STD, ChannelParams
from repro.phy.constellation import BPSK, QPSK, get_constellation
from repro.phy.crc import append_crc32
from repro.phy.frame import (
    HEADER_BITS,
    Frame,
    FrameHeader,
    extract_bits,
    extract_rows,
    scramble_bits,
)
from repro.phy.medium import Transmission, synthesize
from repro.phy.noise import NOISE_POWER
from repro.phy.preamble import PREAMBLE
from repro.phy.sync import Synchronizer
from repro.receiver.decoder import StandardDecoder
from repro.receiver.frontend import StreamConfig
from repro.zigzag.decoder import ZigZagMultiDecoder
from repro.zigzag.engine import PacketSpec, PlacementParams

PRE_LEN = len(PREAMBLE)
# (modulation, payload bits) whose payload + CRC does not fill a whole
# number of symbols, so the modulator pads the frame's last symbol.
PADDED = [("qpsk", 241), ("qam16", 242), ("qam64", 240)]


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


def _padded(modulation, payload_bits, rng, n=4):
    """Clean frames whose last symbol carries modulator pad bits."""
    return [Frame.make(rng.integers(0, 2, payload_bits), seq=i,
                       modulation=modulation) for i in range(n)]


def _reference(soft, constellation):
    """One row through the framing rules, spelled out: header-sized
    extent when the length field fits the row, reference CRC."""
    header_bits = scramble_bits(
        BPSK.demodulate(soft[PRE_LEN:PRE_LEN + HEADER_BITS]))
    body_soft = soft[PRE_LEN + HEADER_BITS:]
    body_bits = scramble_bits(constellation.demodulate(body_soft),
                              offset=HEADER_BITS)
    bits = np.concatenate([header_bits, body_bits])
    try:
        header = FrameHeader.from_bits(header_bits)
    except ReproError:
        header = None
    k = constellation.bits_per_symbol
    if header is not None \
            and -(-(header.payload_bits + 32) // k) == body_soft.size:
        bits = bits[:HEADER_BITS + header.payload_bits + 32]
    crc_ok = bits.size >= 32 \
        and np.array_equal(crc32_bits(bits[:-32]), bits[-32:])
    return bits, crc_ok, header


def _stacked(frames):
    return (np.stack([f.symbols for f in frames]),
            get_constellation(frames[0].header.modulation), frames)


CASES = {
    "bpsk": lambda rng: (_frames("bpsk", rng), BPSK, None),
    "qpsk": lambda rng: (_frames("qpsk", rng), QPSK, None),
    "invalid_modulation": lambda rng: (_bad_modulation_rows(rng), BPSK,
                                       None),
    "under_32_bits": lambda rng: (
        _noisy(np.ones((4, PRE_LEN + 20), complex), rng, 0.5), BPSK, None),
    **{f"padded_{mod}_{bits}": (
        lambda rng, mod=mod, bits=bits: _stacked(_padded(mod, bits, rng)))
       for mod, bits in PADDED},
    # 241 and 242 payload bits both fill 137 QPSK symbols: one stack,
    # two frame sizes.
    "padded_qpsk_mixed_lengths": lambda rng: _stacked(
        [f for pair in zip(_padded("qpsk", 241, rng, 2),
                           _padded("qpsk", 242, rng, 2)) for f in pair]),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_rows_equal_one_row_calls(case):
    soft, constellation, frames = CASES[case](np.random.default_rng(7))
    bits, crc_ok, headers = extract_rows(soft, constellation)
    assert len(bits) == crc_ok.shape[0] == len(headers) == soft.shape[0]
    for row in range(soft.shape[0]):
        one_bits, one_ok, one_header = extract_bits(
            soft[row], constellation)
        ref_bits, ref_ok, ref_header = _reference(soft[row], constellation)
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
    if frames is not None:
        assert crc_ok.all()
        for row, frame in zip(bits, frames):
            assert np.array_equal(row, frame.body_bits)


def _pair(modulation, payload_bits, seed, gain=40.0, offsets=(160, 64)):
    """Two collisions of one (A, B) frame pair, placed as
    ``hidden_pair_scenario`` places them: each packet acquired at its
    true symbol-0 position with its true frequency as the coarse prior."""
    rng = np.random.default_rng(seed)
    frames = {name: Frame.make(rng.integers(0, 2, payload_bits),
                               src=i + 1, seq=i + 1, modulation=modulation)
              for i, name in enumerate("AB")}
    params = {name: ChannelParams(
        gain=gain * np.exp(1j * rng.uniform(0, 2 * np.pi)),
        freq_offset=float(rng.uniform(-FREQ_SPREAD, FREQ_SPREAD)),
        sampling_offset=float(rng.uniform(0, 1)),
        phase_noise_std=PHASE_NOISE_STD) for name in frames}
    alice, bob = (Transmission.from_symbols(frames[name].symbols,
                                            params[name], 0, name)
                  for name in "AB")
    captures = [synthesize([alice, dataclasses.replace(
        bob, offset=offset, symbol0=bob.symbol0 + offset)],
        NOISE_POWER, rng, leading=8, tail=40) for offset in offsets]
    sync = Synchronizer(threshold=0.3)
    placements = []
    for ci, capture in enumerate(captures):
        for t in capture.transmissions:
            est = sync.acquire(capture.samples, t.symbol0,
                               coarse_freq=params[t.label].freq_offset)
            placements.append(PlacementParams(
                t.label, ci, t.symbol0 + est.sampling_offset, est))
    specs = {name: PacketSpec(name, frame.n_symbols,
                              get_constellation(modulation))
             for name, frame in frames.items()}
    return captures, frames, specs, placements


@pytest.mark.parametrize("modulation,payload_bits", PADDED[:2])
@pytest.mark.parametrize("seed", range(4))
def test_padded_zigzag_pair_decodes_both(modulation, payload_bits, seed):
    captures, frames, specs, placements = _pair(
        modulation, payload_bits, seed)
    outcome = ZigZagMultiDecoder(
        StreamConfig()).decode(
        [c.samples for c in captures], specs, placements)
    for name, frame in frames.items():
        result = outcome.results[name]
        assert result.success, (name, result.detail)
        assert np.array_equal(result.bits, frame.body_bits)
        assert result.header == frame.header


@pytest.mark.parametrize("modulation,payload_bits", PADDED)
def test_standard_decoder_agrees_with_codec(modulation, payload_bits):
    """On one clean capture, the standard decoder and the codec applied
    to its whole-frame symbol estimates return the same frame."""
    frame = _padded(modulation, payload_bits, np.random.default_rng(0), 1)[0]
    capture = synthesize([Transmission.from_symbols(
        frame.symbols, ChannelParams(gain=40.0), 0, "A")],
        NOISE_POWER, np.random.default_rng(1), leading=8, tail=40)
    t = capture.transmissions[0]
    result = StandardDecoder().decode(
        capture.samples, start_position=t.symbol0)
    bits, crc_ok, header = extract_bits(
        result.soft_symbols, get_constellation(modulation))
    assert result.soft_symbols.size == frame.n_symbols
    assert np.array_equal(result.bits, bits)
    assert result.success and crc_ok
    assert result.header == header == frame.header
    assert np.array_equal(bits, frame.body_bits)
