"""802.11 PHY/MAC timing constants.

Values follow the standard amendments; the Lemma 4.4.1 analysis uses the
backward-compatible 802.11g set (slot 20us, SIFS 10us, ACK 30us) exactly as
the paper's Appendix A does.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["SLOT_SAMPLES", "Timing", "TIMING_80211A", "TIMING_80211B",
           "TIMING_80211G"]


@dataclass(frozen=True)
class Timing:
    """Timing parameters of one 802.11 flavour (microseconds)."""

    name: str
    slot_us: float
    sifs_us: float
    ack_us: float
    cw_min: int
    cw_max: int

    def __post_init__(self) -> None:
        if min(self.slot_us, self.sifs_us, self.ack_us) <= 0:
            raise ConfigurationError("timing durations must be positive")
        if not 0 < self.cw_min <= self.cw_max:
            raise ConfigurationError("need 0 < cw_min <= cw_max")

    @property
    def difs_us(self) -> float:
        """DIFS = SIFS + 2 slots."""
        return self.sifs_us + 2.0 * self.slot_us

    def backoff_us(self, slots: int) -> float:
        if slots < 0:
            raise ConfigurationError("slots must be non-negative")
        return slots * self.slot_us


# Backward-compatible 802.11g (the paper's Appendix A parameter set:
# S = 20us, ACK = 30us, SIFS = 10us).
TIMING_80211G = Timing("802.11g", slot_us=20.0, sifs_us=10.0, ack_us=30.0,
                       cw_min=16, cw_max=1024)

# 802.11a (OFDM, short slots). The §4.5 simulation "of the 802.11a MAC".
TIMING_80211A = Timing("802.11a", slot_us=9.0, sifs_us=16.0, ack_us=24.0,
                       cw_min=16, cw_max=1024)

# Classic 802.11b DSSS timing.
TIMING_80211B = Timing("802.11b", slot_us=20.0, sifs_us=10.0, ack_us=112.0,
                       cw_min=32, cw_max=1024)

# One 802.11g slot on the simulated sample clock: every MAC jitter,
# SIFS, ACK and backoff duration is scaled onto samples through it.
SLOT_SAMPLES = 20
