"""Did the AP receive two matching collisions? (§4.2.2)

"We use the same correlation trick to match the current collision against
prior collisions ... The AP aligns the two collisions at the positions
where P2 and P2' start. If the two packets are the same, the samples
aligned in such a way are highly dependent ... and thus the correlation
spikes."

Retransmitted 802.11 frames are bit-identical except the retry flag, so
sample-level correlation between the aligned regions is high even though
each collision superimposes a *different* alignment of the other packet
(which acts as uncorrelated noise in this test).

Where the aligned window starts decides what the score can tell apart.
Every packet opens with the same preamble, and one sender's headers
differ from packet to packet only in a few bits (sequence number, retry
flag), so a window anchored at the packet start scores two *different*
packets of the same senders almost as high as two copies of one packet.
The AP (:meth:`repro.core.api.ZigZagReceiver._peak_alignment`) therefore
opens each window ``len(PREAMBLE) + HEADER_BITS`` symbols past the
packet start, on the payload alone.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["match_score"]


def match_score(signal_a, position_a: int, signal_b, position_b: int,
                window: int) -> float:
    """Normalized cross-correlation of two captures aligned at the given
    positions, over *window* samples (clipped to what both captures hold).

    Returns a value in [0, 1]; identical packet content under independent
    interference typically scores around P_pkt / P_total, while unrelated
    content scores near 0.
    """
    if window <= 0:
        raise ConfigurationError("window must be positive")
    a = np.asarray(signal_a, dtype=complex).ravel()
    b = np.asarray(signal_b, dtype=complex).ravel()
    if not (0 <= position_a < a.size and 0 <= position_b < b.size):
        raise ConfigurationError("alignment position outside capture")
    span = min(window, a.size - position_a, b.size - position_b)
    if span < 8:
        raise ConfigurationError("overlap too short to score a match")
    seg_a = a[position_a:position_a + span]
    seg_b = b[position_b:position_b + span]
    denom = np.linalg.norm(seg_a) * np.linalg.norm(seg_b)
    if denom == 0:
        return 0.0
    return float(abs(np.vdot(seg_a, seg_b)) / denom)
