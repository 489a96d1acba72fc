"""Log-distance path loss with log-normal shadowing.

The standard indoor propagation model: received power falls off as
``10 n log10(d/d0)`` dB beyond a reference distance, plus a per-link
Gaussian shadowing term capturing walls and furniture. Indoor WLAN
exponents run 2.5–4. The defaults below are the generated city block's
model (:data:`repro.testbed.deployment.PATHLOSS`); the 14-node office
testbed (:func:`repro.testbed.topology.default_testbed`) uses exponent
3.0 with 6 dB shadowing, the same qualitative SNR spread as the paper's
testbed (Fig 5-1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["LogDistancePathLoss"]

# Loss at the reference distance, and that distance.
REFERENCE_DB = 40.0
REFERENCE_M = 1.0
# The link budget every layout shares: SNR = TX_POWER_DBM - loss -
# NOISE_FLOOR_DBM, clamped to MAX_SNR_DB (receiver front-end saturation;
# the paper's indoor links rarely exceeded the mid-20s dB).
TX_POWER_DBM = 0.0
NOISE_FLOOR_DBM = -86.0
MAX_SNR_DB = 25.0


@dataclass(frozen=True)
class LogDistancePathLoss:
    """Path loss in dB as a function of distance in meters."""

    exponent: float = 3.2
    shadowing_db: float = 4.0

    def __post_init__(self) -> None:
        if self.exponent <= 0:
            raise ConfigurationError("exponent must be positive")
        if self.shadowing_db < 0:
            raise ConfigurationError("shadowing std must be non-negative")

    def mean_loss_db(self, distance_m) -> np.ndarray:
        """Deterministic component of the loss."""
        d = np.maximum(np.asarray(distance_m, dtype=float), REFERENCE_M)
        return REFERENCE_DB + 10.0 * self.exponent * np.log10(
            d / REFERENCE_M)

    def sample_loss_db(self, distance_m,
                       rng: np.random.Generator) -> np.ndarray:
        """Loss including one shadowing draw (quasi-static per link)."""
        mean = self.mean_loss_db(distance_m)
        return mean + rng.normal(0.0, self.shadowing_db,
                                 size=np.shape(mean))
