"""Successive interference cancellation for capture-effect patterns.

Fig 4-1(d)/(e): when Alice's power at the AP is much higher than Bob's, the
AP decodes Alice's packet straight through the collision (capture effect),
re-encodes it, subtracts it, and then decodes Bob from the residual —
resolving both packets from a *single* collision. ZigZag "includes
interference cancellation as a special case, and uses it only when the
senders' powers and rates permit" (§2.2).

If Bob's post-subtraction copy fails its CRC, the caller keeps the soft
symbols: the next collision yields a second faulty copy of the same packet
(Alice sends a *new* packet, Bob retransmits), and MRC across the two
copies recovers it (Fig 4-1d, §4.1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ReproError
from repro.phy.sync import Synchronizer
from repro.receiver.frontend import StreamConfig, SymbolStreamDecoder
from repro.receiver.result import DecodeResult, frame_results
from repro.zigzag.engine import PacketSpec, PlacementParams
from repro.zigzag.reencode import Reencoder, subtract_segment

__all__ = ["SicDecoder"]


@dataclass
class SicDecoder:
    """Decode a single collision by power-ordered cancellation."""

    config: StreamConfig

    def decode(self, capture, specs: dict[str, PacketSpec],
               placements: list[PlacementParams]
               ) -> dict[str, DecodeResult]:
        """Decode packets strongest-first, subtracting each before the next.

        All placements must reference collision 0 (a single capture).
        Each packet (after the first) is *re-acquired* from the cleaned
        buffer: estimates taken on the raw collision are dominated by the
        stronger sender and only become reliable once it is gone. Weaker
        packets keep their soft symbols even on CRC failure so the caller
        can MRC-combine with a later copy.
        """
        y = np.array(capture, dtype=complex, copy=True)
        sync = Synchronizer(threshold=0.3)
        ordered = sorted(placements,
                         key=lambda pl: -abs(pl.estimate.gain))
        results: dict[str, DecodeResult] = {}
        for index, pl in enumerate(ordered):
            spec = specs[pl.packet]
            estimate, start = pl.estimate, pl.start
            if index > 0:
                # Interference above this packet is gone; re-estimate
                # around the original *detection* position (the initial
                # fractional refinement was interference-limited and may
                # itself be wrong).
                position = int(round(pl.start
                                     - pl.estimate.sampling_offset))
                try:
                    estimate = sync.acquire(
                        y, position, coarse_freq=pl.estimate.freq_offset)
                    start = position + estimate.sampling_offset
                except ReproError:
                    pass
            try:
                stream = SymbolStreamDecoder(
                    self.config, estimate, start,
                    body_constellation=spec.body_constellation)
                chunk = stream.decode_chunk(y, spec.n_symbols)
            except ReproError as exc:
                results[pl.packet] = DecodeResult.failure(str(exc),
                                                          via="sic")
                continue
            results[pl.packet] = frame_results(
                chunk.soft[None], spec.body_constellation,
                [stream.estimate], "sic")[0]
            reencoder = Reencoder(
                estimate=stream.estimate,
                start=start,
                symbol_isi=stream.channel_isi,
            )
            segment, base = reencoder.image(chunk.effective_symbols, 0)
            subtract_segment(y, segment, base)
        return results
