"""The detected-preamble record shared by detection and matching.

§4.2.1: the AP slides the known L-sample preamble across the received
buffer; after compensating for the colliding sender's frequency offset, the
correlation magnitude spikes exactly where a packet (and only a packet)
begins. :meth:`repro.phy.sync.Synchronizer.detect` runs that correlation
on the sample stream; each spike it reports is a :class:`CorrelationPeak`,
the unit of packet sync, collision detection (Fig 4-2) and collision
*matching* (§4.2.2).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CorrelationPeak"]


@dataclass(frozen=True)
class CorrelationPeak:
    """One detected preamble alignment.

    Attributes
    ----------
    position:
        Integer sample index of the packet start.
    value:
        Complex correlation Γ'(Δ) at the peak — its magnitude over the
        preamble energy is the channel gain estimate (§4.2.4a).
    score:
        Normalized correlation in [0, 1] used for thresholding.
    """

    position: int
    value: complex
    score: float
