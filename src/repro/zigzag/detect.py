"""Is it a collision? (§4.2.1, Fig 4-2, Table 5.1 row 1)

A ZigZag AP correlates the known preamble against the received signal,
compensating each candidate sender's coarse frequency offset. A spike in
the *middle* of a reception marks a colliding packet and its exact start
offset Δ. The paper thresholds the compensated correlation at
``β × L × SNR`` with β ≈ 0.65 balancing false positives against false
negatives; our normalized-score equivalent divides out both the preamble
and local signal energy so one β works across the SNR range.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.phy.correlation import CorrelationPeak
from repro.phy.preamble import Preamble
from repro.phy.pulse import PulseShaper
from repro.phy.sync import Synchronizer

__all__ = ["CollisionVerdict", "CollisionDetector"]


@dataclass(frozen=True)
class CollisionVerdict:
    """Outcome of collision detection on one capture."""

    is_collision: bool
    peaks: list[CorrelationPeak]

    @property
    def offset(self) -> int | None:
        """Δ between the first two detected packets, in samples."""
        if len(self.peaks) < 2:
            return None
        return self.peaks[1].position - self.peaks[0].position


@dataclass
class CollisionDetector:
    """Detects packet starts — including ones buried inside a reception.

    Parameters
    ----------
    preamble / shaper:
        System preamble and pulse shaping.
    beta:
        Detection threshold on the normalized correlation score, the
        analogue of the paper's β (§5.3a). Lower values catch weaker buried
        preambles at the cost of false positives on clean packets; the
        paper (and our Table 5.1 bench) operates around the knee.
    """

    preamble: Preamble
    shaper: PulseShaper = field(default_factory=PulseShaper)
    beta: float = 0.40

    def __post_init__(self) -> None:
        self._sync = Synchronizer(self.preamble, self.shaper,
                                  threshold=self.beta)

    def find_packets(self, signal, coarse_freqs=(0.0,),
                     max_peaks: int | None = None) -> list[CorrelationPeak]:
        """All packet-start peaks, merging detections across the coarse
        frequency-offset candidates of the AP's associated clients (one
        pruned detection pass over the whole list,
        :meth:`Synchronizer.hits`)."""
        y = np.asarray(signal, dtype=complex).ravel()
        # Slot lag -> (insertion ticket, (lag, score, value)). At equal
        # distance the slot inserted first wins; a replacing hit is
        # inserted anew. Peaks are built for the survivors only.
        merged: dict[int, tuple[int, tuple[int, float, complex]]] = {}
        ticket = itertools.count()
        for found in self._sync.hits(y, list(coarse_freqs), max_peaks):
            for hit in found:
                # Keep the strongest detection near each position: the
                # nearest merged slot within 2 samples takes the hit.
                lag = hit[0]
                slot = min((pos for pos in range(lag - 2, lag + 3)
                            if pos in merged),
                           key=lambda pos: (abs(pos - lag), merged[pos][0]),
                           default=None)
                if slot is None or merged[slot][1][1] < hit[1]:
                    if slot is not None:
                        del merged[slot]
                    merged[lag] = (next(ticket), hit)
        peaks = [self._sync.peak(merged[lag][1]) for lag in sorted(merged)]
        if max_peaks is not None:
            peaks = peaks[:max_peaks]
        return peaks

    def inspect(self, signal, coarse_freqs=(0.0,),
                max_packets: int = 2) -> CollisionVerdict:
        """Classify a capture: clean reception vs collision.

        A capture is a collision when two or more preamble spikes clear
        the threshold at distinct positions (Fig 4-2). Only the
        *strongest* ``max_packets`` spikes are kept (weaker ones are far
        more likely to be data sidelobes than third packets), then
        reported in position order.
        """
        peaks = self.find_packets(signal, coarse_freqs)
        strongest = sorted(peaks, key=lambda p: -p.score)[:max_packets]
        strongest.sort(key=lambda p: p.position)
        return CollisionVerdict(is_collision=len(strongest) >= 2,
                                peaks=strongest)
