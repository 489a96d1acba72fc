"""The ordinary 802.11 receive path: sync, estimate, track, demod, CRC.

This is both (a) the "Current 802.11" baseline of §5.1(e) and (b) the
standard decoder that a ZigZag AP tries *first* on every reception —
ZigZag only engages when this fails (§4.2, §5.1d).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import CollisionDetectError, FrameError
from repro.phy.constellation import BPSK, get_constellation
from repro.phy.estimation import ChannelEstimate
from repro.phy.frame import HEADER_BITS, FrameHeader, scramble_bits
from repro.phy.preamble import PREAMBLE
from repro.phy.pulse import DELAY, SPS
from repro.phy.sync import Synchronizer
from repro.receiver.frontend import StreamConfig, SymbolStreamDecoder
from repro.receiver.result import DecodeResult, frame_results

__all__ = ["StandardDecoder"]


@dataclass
class StandardDecoder:
    """Decode one packet from a capture, assuming no collision.

    Parameters
    ----------
    sync_threshold:
        Normalized-correlation detection threshold for packet start.
    coarse_freq:
        Coarse frequency-offset prior for the expected sender, used only
        when :meth:`decode` acquires the packet itself (no *estimate*).
        Offline experiments set it per sender; the APs never do — they
        pass an estimate acquired at their client-table frequencies
        (§4.2.1).
    track_phase / use_equalizer:
        Ablation switches (Table 5.1).
    """

    sync_threshold: float = 0.6
    coarse_freq: float = 0.0
    track_phase: bool = True
    use_equalizer: bool = True

    def __post_init__(self) -> None:
        self._sync = Synchronizer(threshold=self.sync_threshold)
        self._config = StreamConfig(track_phase=self.track_phase,
                                    use_equalizer=self.use_equalizer)

    def decode(self, signal, start_position: int | None = None,
               estimate: ChannelEstimate | None = None) -> DecodeResult:
        """Decode the first packet found in *signal*.

        *start_position* (symbol-0 pulse-centre sample index) skips
        detection; *estimate* skips acquisition too.
        """
        y = np.asarray(signal, dtype=complex).ravel()
        if start_position is None:
            try:
                peaks = self._sync.detect(y, coarse_freq=self.coarse_freq,
                                          max_peaks=1)
            except CollisionDetectError:
                return DecodeResult.failure("capture too short for sync")
            if not peaks:
                return DecodeResult.failure("no preamble found")
            start_position = peaks[0].position

        if estimate is None:
            estimate = self._sync.acquire(
                y, start_position, coarse_freq=self.coarse_freq)
        start = start_position + estimate.sampling_offset
        stream = SymbolStreamDecoder(self._config, estimate, start)
        return self.decode_with_stream(y, stream)

    def decode_with_stream(self, y: np.ndarray,
                           stream: SymbolStreamDecoder) -> DecodeResult:
        """Shared tail of the decode path: parse the header from the head
        chunk, size the rest of the frame from it, then hand the whole
        frame's decisions to the frame codec for bits, CRC and header."""
        pre_len = len(PREAMBLE)
        available = int(np.floor((y.size - stream.start + DELAY) / SPS))
        first_stop = pre_len + HEADER_BITS
        if available < first_stop + 32:
            return DecodeResult.failure("capture truncates the header")

        head_chunk = stream.decode_chunk(y, first_stop)
        header_bits = scramble_bits(
            BPSK.demodulate(head_chunk.decisions[pre_len:]))
        try:
            header = FrameHeader.from_bits(header_bits)
        except FrameError as exc:
            return DecodeResult.failure(f"header unparseable: {exc}")

        body_constellation = get_constellation(header.modulation)
        stream.set_body_constellation(body_constellation)
        k = body_constellation.bits_per_symbol
        tail_bits = header.payload_bits + 32
        n_tail_symbols = (tail_bits + k - 1) // k
        total = first_stop + n_tail_symbols
        if total > available:
            return DecodeResult.failure(
                "capture shorter than the advertised frame length")

        tail_chunk = stream.decode_chunk(y, total)
        decisions = np.concatenate([head_chunk.decisions,
                                    tail_chunk.decisions])
        soft = np.concatenate([head_chunk.soft, tail_chunk.soft])
        return frame_results(soft[None], body_constellation,
                             [stream.estimate], "standard",
                             decisions=decisions[None])[0]
