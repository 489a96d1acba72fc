"""PHY framing: preamble | header | payload | CRC-32.

Mirrors the structure the paper uses (32-bit preamble, payload, 32-bit CRC,
§5.1c) plus a small PLCP-like header carrying source address, sequence
number, the 802.11 retry flag, payload length, and payload modulation. The
header matters to ZigZag in two ways: the *retry* flag is the one field that
differs between a packet and its retransmission (§4.2.2), and the length
field lets the receiver know how many symbols to decode.

The preamble and header are always BPSK (base rate); the payload may use any
registered constellation, since ZigZag is modulation-agnostic (§4.2.3a).

This module is the frame codec. :meth:`Frame.build` is its encode half;
:func:`extract_rows` is its decode half and every receiver's only path
from symbol estimates to ``(bits, crc_ok, header)``: the standard decoder,
SIC, and the scalar and batched ZigZag decoders all call it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, FrameError
from repro.phy.constellation import BPSK, Constellation, get_constellation
from repro.phy.crc import append_crc32, crc32_check_rows
from repro.phy.modulator import Modulator
from repro.phy.preamble import Preamble, default_preamble, lfsr_sequence
from repro.utils.bits import as_bit_array, bits_from_int

__all__ = ["FrameHeader", "Frame", "build_frame_bits", "extract_bits",
           "extract_rows", "parse_headers", "scramble_bits",
           "scrambler_sequence", "descramble_soft_bpsk"]

# Additive scrambler PN sequence (order-9 LFSR, fixed seed), regenerated on
# demand up to the longest frame seen. 802.11 scrambles all PSDU bits for
# exactly the reason we do: constant bit runs (e.g. zero-heavy headers)
# would otherwise put narrowband structure on the air that cross-correlates
# with everything — including the sync preamble.
_SCRAMBLER_CACHE = lfsr_sequence(4096, order=9, seed_state=0b101010101)


def scrambler_sequence(length: int, offset: int = 0) -> np.ndarray:
    """The frame scrambler PN bits ``[offset, offset + length)``.

    Returns a read-only view into the shared cache — batched consumers XOR
    it across a whole ``(N, bits)`` stack at once. Do not mutate.
    """
    global _SCRAMBLER_CACHE
    needed = offset + length
    if needed > _SCRAMBLER_CACHE.size:
        _SCRAMBLER_CACHE = lfsr_sequence(
            2 * needed, order=9, seed_state=0b101010101)
    return _SCRAMBLER_CACHE[offset:offset + length]


def scramble_bits(bits, offset: int = 0) -> np.ndarray:
    """XOR *bits* with the frame scrambler PN, starting at PN index
    *offset*. Self-inverse: apply again (same offset) to descramble."""
    arr = as_bit_array(bits)
    return arr ^ scrambler_sequence(arr.size, offset)


def descramble_soft_bpsk(soft, offset: int = 0) -> np.ndarray:
    """Undo the scrambler on *soft BPSK symbol estimates*.

    A scrambler bit of 1 flipped the transmitted bit, i.e. negated the
    BPSK symbol; soft-decision consumers (e.g. the §6a Viterbi decoder)
    need the sign restored without slicing to hard bits first.
    """
    values = np.asarray(soft, dtype=complex).ravel()
    return values * (1.0 - 2.0 * scrambler_sequence(values.size, offset))


_MODULATION_IDS = {"bpsk": 0, "qpsk": 1, "qam16": 2, "qam64": 3}
_MODULATION_NAMES = {v: k for k, v in _MODULATION_IDS.items()}

# Header layout, MSB-first on air: (FrameHeader field, width in bits), in
# field order; ``modulation`` travels as its id in _MODULATION_IDS.
_HEADER_LAYOUT = (("src", 8), ("dst", 8), ("seq", 12), ("retry", 1),
                  ("modulation", 3), ("payload_bits", 16))
HEADER_BITS = sum(width for _, width in _HEADER_LAYOUT)


def _field_weights() -> np.ndarray:
    """``(HEADER_BITS, fields)`` place values: header bits @ them = fields."""
    weights = np.zeros((HEADER_BITS, len(_HEADER_LAYOUT)), dtype=np.int64)
    pos = 0
    for column, (_, width) in enumerate(_HEADER_LAYOUT):
        weights[pos:pos + width, column] = 1 << np.arange(width - 1, -1, -1)
        pos += width
    return weights


_FIELD_WEIGHTS = _field_weights()


@dataclass(frozen=True)
class FrameHeader:
    """PLCP-like header. ``payload_bits`` is the *unpadded* payload length."""

    src: int
    dst: int
    seq: int
    retry: bool
    modulation: str
    payload_bits: int

    def __post_init__(self) -> None:
        for name, width in _HEADER_LAYOUT:
            if name != "modulation" \
                    and not 0 <= getattr(self, name) < (1 << width):
                raise ConfigurationError(f"header field {name} out of range")
        if self.modulation not in _MODULATION_IDS:
            raise ConfigurationError(
                f"unknown modulation {self.modulation!r}"
            )

    def to_bits(self) -> np.ndarray:
        values = (self.src, self.dst, self.seq, int(self.retry),
                  _MODULATION_IDS[self.modulation], self.payload_bits)
        return np.concatenate([bits_from_int(value, width)
                               for value, (_, width)
                               in zip(values, _HEADER_LAYOUT)])

    @classmethod
    def from_bits(cls, bits) -> "FrameHeader":
        arr = as_bit_array(bits)
        if arr.size != HEADER_BITS:
            raise FrameError(
                f"header needs {HEADER_BITS} bits, got {arr.size}"
            )
        return cls._from_fields(*_field_values(arr[None])[0])

    @classmethod
    def _from_fields(cls, src: int, dst: int, seq: int, retry: int,
                     mod_id: int, payload_bits: int) -> "FrameHeader":
        if mod_id not in _MODULATION_NAMES:
            raise FrameError(f"invalid modulation id {mod_id}")
        return cls(src, dst, seq, bool(retry), _MODULATION_NAMES[mod_id],
                   payload_bits)

    def with_retry(self, retry: bool = True) -> "FrameHeader":
        """Copy of this header with the 802.11 retry flag set/cleared."""
        return FrameHeader(self.src, self.dst, self.seq, retry,
                           self.modulation, self.payload_bits)


def _field_values(rows: np.ndarray) -> list[list[int]]:
    """Header field values of each row of an ``(N, HEADER_BITS)`` stack."""
    return (rows.astype(np.int64) @ _FIELD_WEIGHTS).tolist()


def parse_headers(rows) -> list[FrameHeader | None]:
    """Row-wise :meth:`FrameHeader.from_bits` over an ``(N, bits)`` stack.

    Each row's first :data:`HEADER_BITS` bits are parsed; a row that is
    too short or carries an invalid modulation id gives None, where
    ``from_bits`` would raise :class:`FrameError`.
    """
    rows = np.asarray(rows, dtype=np.uint8)
    if rows.shape[1] < HEADER_BITS:
        return [None] * rows.shape[0]
    headers: list[FrameHeader | None] = []
    for fields in _field_values(rows[:, :HEADER_BITS]):
        try:
            headers.append(FrameHeader._from_fields(*fields))
        except FrameError:
            headers.append(None)
    return headers


def _frame_size(header: FrameHeader | None, body_symbols: int, k: int,
                full: int) -> int:
    """Bits of one decoded frame that the CRC covers.

    A header whose ``payload_bits`` fills exactly the *body_symbols*
    symbols after the header (at *k* bits per symbol) sizes the frame,
    which drops the modulator's pad bits. Any other header leaves the
    *full* extent, so a corrupted length field cannot truncate the output.
    """
    if header is None:
        return full
    tail_bits = header.payload_bits + 32
    if -(-tail_bits // k) != body_symbols:
        return full
    return HEADER_BITS + tail_bits


def extract_rows(soft: np.ndarray, body_constellation: Constellation,
                 preamble_len: int
                 ) -> tuple[list[np.ndarray], np.ndarray,
                            list[FrameHeader | None]]:
    """Decode one frame per row of an ``(N, n_symbols)`` stack of symbol
    estimates (preamble included): demodulate, descramble, parse the
    header and check the CRC.

    The header is BPSK, the body uses *body_constellation*, and the
    scrambler runs across both from bit 0. The frame extent is the row
    length, never the decoded header alone (see :func:`_frame_size`).
    Returns ``(bits, crc_ok, headers)``: one uint8 bit array per row
    (header + payload + CRC), an ``(N,)`` bool array, and one
    :class:`FrameHeader` per row, None where unparseable.
    """
    n = soft.shape[0]
    header_soft = soft[:, preamble_len:preamble_len + HEADER_BITS]
    body_soft = soft[:, preamble_len + HEADER_BITS:]
    full = np.concatenate(
        [BPSK.demodulate(header_soft).reshape(n, -1),
         body_constellation.demodulate(body_soft).reshape(n, -1)],
        axis=1)
    full ^= scrambler_sequence(full.shape[1])
    headers = parse_headers(full)
    sizes = [_frame_size(header, body_soft.shape[1],
                         body_constellation.bits_per_symbol, full.shape[1])
             for header in headers]
    crc_ok = np.zeros(n, dtype=bool)
    for size in set(sizes):
        rows = [i for i, s in enumerate(sizes) if s == size]
        crc_ok[rows] = crc32_check_rows(full[rows, :size])
    return [row[:size] for row, size in zip(full, sizes)], crc_ok, headers


def extract_bits(soft: np.ndarray, body_constellation: Constellation,
                 preamble_len: int
                 ) -> tuple[np.ndarray, bool, FrameHeader | None]:
    """:func:`extract_rows` for one frame's symbol estimates:
    ``(bits, crc_ok, header)``."""
    bits, crc_ok, headers = extract_rows(
        np.asarray(soft)[None], body_constellation, preamble_len)
    return bits[0], bool(crc_ok[0]), headers[0]


def build_frame_bits(header: FrameHeader, payload) -> np.ndarray:
    """Header + payload + CRC-32 over both, as one bit array."""
    payload_arr = as_bit_array(payload)
    if payload_arr.size != header.payload_bits:
        raise FrameError(
            f"payload has {payload_arr.size} bits but header says "
            f"{header.payload_bits}"
        )
    return append_crc32(np.concatenate([header.to_bits(), payload_arr]))


@dataclass(frozen=True)
class Frame:
    """A fully-built PHY frame: known preamble plus modulated body symbols.

    ``symbols`` is the on-air unit-power complex symbol stream
    (preamble symbols followed by body symbols). ``body_bits`` is what the
    receiver must recover (header + payload + CRC).
    """

    header: FrameHeader
    payload: np.ndarray
    preamble: Preamble
    body_bits: np.ndarray
    symbols: np.ndarray

    @classmethod
    def build(cls, header: FrameHeader, payload,
              preamble: Preamble | None = None) -> "Frame":
        preamble = preamble or default_preamble()
        payload_arr = as_bit_array(payload)
        body_bits = build_frame_bits(header, payload_arr)
        on_air = scramble_bits(body_bits)
        header_mod = Modulator(BPSK)
        body_mod = Modulator(get_constellation(header.modulation))
        # Header+CRC region: header bits go at base rate; payload at its own
        # rate. We modulate the whole body at the payload constellation when
        # it is BPSK-compatible; otherwise header stays BPSK and payload+crc
        # use the payload constellation.
        if header.modulation == "bpsk":
            body_symbols = header_mod.modulate(on_air)
        else:
            header_symbols = header_mod.modulate(on_air[:HEADER_BITS])
            rest_symbols = body_mod.modulate(on_air[HEADER_BITS:])
            body_symbols = np.concatenate([header_symbols, rest_symbols])
        symbols = np.concatenate([preamble.symbols, body_symbols])
        return cls(header, payload_arr, preamble, body_bits, symbols)

    @classmethod
    def make(cls, payload, *, src: int = 1, dst: int = 0, seq: int = 0,
             retry: bool = False, modulation: str = "bpsk",
             preamble: Preamble | None = None) -> "Frame":
        """Convenience constructor that derives the header from the payload."""
        payload_arr = as_bit_array(payload)
        header = FrameHeader(src, dst, seq, retry, modulation,
                             payload_arr.size)
        return cls.build(header, payload_arr, preamble)

    def retransmission(self) -> "Frame":
        """The 802.11 retransmission of this frame: same bits, retry=1."""
        return Frame.build(self.header.with_retry(True), self.payload,
                           self.preamble)

    @property
    def n_symbols(self) -> int:
        return self.symbols.size
