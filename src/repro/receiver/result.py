"""Result containers shared by all receiver designs."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.phy.constellation import Constellation
from repro.phy.estimation import ChannelEstimate
from repro.phy.frame import HEADER_BITS, FrameHeader, extract_rows
from repro.utils.bits import bit_error_rate

__all__ = ["DecodeResult", "frame_results"]


@dataclass
class DecodeResult:
    """Outcome of decoding one packet (by any receiver design).

    Attributes
    ----------
    success:
        True iff the frame parsed and its CRC-32 matched.
    bits:
        The recovered body bits (header + payload + CRC), possibly empty
        when synchronization failed outright.
    header:
        Parsed frame header when available (may be present even if the CRC
        failed — useful for retransmission matching).
    payload:
        Recovered payload bits (empty on hard failure).
    soft_symbols:
        Gain-normalized soft symbol estimates (after equalization and
        phase correction) for the *whole frame*, preamble included, so
        symbol ``i`` of the frame is ``soft_symbols[i]`` whichever
        receiver decoded it; what MRC combines. Empty on hard failure.
    estimate:
        The receiver's final channel estimate for this packet.
    via:
        Which path produced the result: "standard", "zigzag", "sic", ...
    """

    success: bool
    bits: np.ndarray = field(default_factory=lambda: np.zeros(0, np.uint8))
    header: FrameHeader | None = None
    payload: np.ndarray = field(default_factory=lambda: np.zeros(0, np.uint8))
    soft_symbols: np.ndarray = field(
        default_factory=lambda: np.zeros(0, complex))
    estimate: ChannelEstimate | None = None
    via: str = "standard"
    detail: str = ""

    def ber_against(self, true_bits) -> float:
        """BER versus ground truth, counting missing bits as errors.

        The paper's loss metric treats a packet as received iff its BER is
        below 1e-3 (§5.1f); undecoded packets therefore count as BER 0.5+.
        """
        truth = np.asarray(true_bits, dtype=np.uint8).ravel()
        if truth.size == 0:
            return 0.0
        if self.bits.size < truth.size:
            got = self.bits
            missing = truth.size - got.size
            errors = int(np.count_nonzero(got != truth[:got.size])) + missing
            return errors / truth.size
        return bit_error_rate(truth, self.bits[:truth.size])

    def delivered(self, true_bits, ber_threshold: float = 1e-3) -> bool:
        """The paper's delivery rule: BER below threshold (§5.1f)."""
        return self.ber_against(true_bits) < ber_threshold

    @classmethod
    def failure(cls, detail: str, via: str = "standard") -> "DecodeResult":
        return cls(success=False, via=via, detail=detail)


def frame_results(soft: np.ndarray, body_constellation: Constellation,
                  estimates: list, via: str,
                  decisions: np.ndarray | None = None
                  ) -> list[DecodeResult]:
    """One :class:`DecodeResult` per row of *soft* ``(N, n_symbols)``.

    Each row is one whole frame's soft symbols; ``estimates[i]`` is row
    i's final channel estimate. The frame codec
    (:func:`~repro.phy.frame.extract_rows`) turns *decisions* into bits
    when given (sliced points demodulate to their own labels), else
    *soft*.
    """
    bits, crc_ok, headers = extract_rows(
        soft if decisions is None else decisions, body_constellation)
    empty = np.zeros(0, np.uint8)
    return [
        DecodeResult(
            success=ok,
            bits=row,
            header=header,
            payload=row[HEADER_BITS:-32]
            if row.size >= HEADER_BITS + 32 else empty,
            soft_symbols=row_soft,
            estimate=estimate,
            via=via,
            detail="" if ok else "CRC mismatch",
        )
        for row, ok, header, row_soft, estimate
        in zip(bits, crc_ok.tolist(), headers, soft, estimates)
    ]
