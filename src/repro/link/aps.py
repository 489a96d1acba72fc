"""Access points: one burst-level interface, two receiver designs.

The session driver is design-agnostic — it hands each segmented burst to
an AP object's ``receive`` and acts on the decode results. Two designs
implement the interface:

- ``zigzag`` is the :class:`~repro.core.ZigZagReceiver` itself, with its
  full flow control (§5.1d): standard decode first, capture-effect SIC,
  collision-buffer matching and ZigZag pair decoding.
- :class:`StandardAp` is the Current-802.11 baseline (§5.1e): it syncs on
  preamble spikes and applies the plain standard decoder to the strongest
  candidates, with no collision buffer and no interference cancellation.
  Capture-effect receptions emerge naturally when one sender dominates.

Both keep the per-client coarse frequency table the paper's AP maintains
from association time (§4.2.1); the session seeds it.
"""

from __future__ import annotations

import numpy as np

from repro.core.api import (
    ClientTable,
    ReceiverConfig,
    ReceiverStats,
    ZigZagReceiver,
)
from repro.errors import ReproError
from repro.phy.sync import Synchronizer
from repro.receiver.decoder import StandardDecoder
from repro.receiver.result import DecodeResult
from repro.zigzag.detect import CollisionDetector

__all__ = ["StandardAp", "build_ap"]


class StandardAp:
    """Current 802.11: per-spike standard decoding, nothing else."""

    def __init__(self, config: ReceiverConfig) -> None:
        self.config = config
        self.clients = ClientTable()
        self.stats = ReceiverStats()
        # Packet-start detection at the *standard* sync threshold — a
        # plain AP does not hunt for buried preambles.
        self._detector = CollisionDetector(config.preamble, config.shaper,
                                           beta=config.sync_threshold)
        self._sync = Synchronizer(config.preamble, config.shaper,
                                  threshold=config.sync_threshold)
        self._decoder = StandardDecoder(
            config.preamble, config.shaper,
            noise_power=config.noise_power,
            sync_threshold=config.sync_threshold,
            track_phase=config.track_phase,
            use_equalizer=config.use_equalizer)

    def receive(self, samples) -> list[DecodeResult]:
        y = np.asarray(samples, dtype=complex).ravel()
        self.stats.captures += 1
        try:
            peaks = self._detector.find_packets(y, self.clients.candidates())
        except ReproError:
            return []   # burst shorter than the preamble waveform
        if not peaks:
            return []
        strongest = sorted(peaks, key=lambda p: -p.score)[:2]
        if len(strongest) >= 2:
            self.stats.collisions_detected += 1
        results: list[DecodeResult] = []
        seen_src: set[int] = set()
        for peak in strongest:
            # One timing-grid pass per peak serves every client frequency.
            best = max(self._sync.acquire(
                y, peak.position, coarse_freq=self.clients.candidates(),
                noise_power=self.config.noise_power),
                key=lambda est: abs(est.gain))
            try:
                result = self._decoder.decode(
                    y, start_position=peak.position, estimate=best)
            except ReproError:
                continue
            if not result.success or result.header is None:
                continue
            if result.header.src in seen_src:
                continue
            seen_src.add(result.header.src)
            self.clients.update(result.header.src,
                                result.estimate.freq_offset)
            self.stats.clean_decodes += 1
            results.append(result)
        return results


def build_ap(design: str,
             config: ReceiverConfig) -> "ZigZagReceiver | StandardAp":
    """The AP for a ``spec.design`` name (zigzag / 802.11)."""
    if design == "zigzag":
        return ZigZagReceiver(config)
    if design == "802.11":
        return StandardAp(config)
    raise ReproError(
        f"no streaming AP for design {design!r}; use 'zigzag' or '802.11'")
