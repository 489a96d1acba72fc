"""Receiver-side link estimates (§4.2.4).

:meth:`repro.phy.sync.Synchronizer.acquire` estimates a sender's complex
gain, frequency offset and fractional sampling offset from the known
preamble on the sample stream and returns them as a
:class:`ChannelEstimate`; decision-directed phase tracking refines
them during decoding.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["ChannelEstimate"]

# Standard deviation, in cycles per sample, of the AP's coarse
# per-client frequency-offset estimate: the client-table entry "obtained
# at the time of association" (§4.2.1) that acquisition starts from.
COARSE_FREQ_ERROR = 1.5e-5


@dataclass(frozen=True)
class ChannelEstimate:
    """Receiver-side estimate of one sender's link parameters."""

    gain: complex
    freq_offset: float
    sampling_offset: float
    snr_db: float
    isi_taps: tuple | None = None

    def with_gain(self, gain: complex) -> "ChannelEstimate":
        return replace(self, gain=gain)

