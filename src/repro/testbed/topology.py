"""Node topology, SNR matrix, and carrier-sense classification (Fig 5-1).

A :class:`Testbed` holds node positions and a symmetric per-link SNR matrix
drawn from the path-loss model. Carrier sensing between two *senders* is
classified from the inter-sender SNR:

- ``PERFECT``: each reliably detects the other's transmissions (CSMA works);
- ``PARTIAL``: detection is probabilistic (they sometimes collide);
- ``HIDDEN``: they cannot sense each other at all (every concurrent
  transmission collides).

The paper's testbed exhibits 12% hidden / 8% partial / 80% perfect sender
pairs (§5.6); :func:`default_testbed` produces a 14-node layout with a
comparable mix.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from repro.errors import ConfigurationError
from repro.testbed.pathloss import (
    MAX_SNR_DB,
    NOISE_FLOOR_DBM,
    TX_POWER_DBM,
    LogDistancePathLoss,
)
from repro.utils.rng import make_rng

__all__ = ["CS_FULL_DB", "CS_NONE_DB", "REACHABLE_DB", "SensingClass",
           "Testbed", "classify_sensing", "default_testbed",
           "snr_sense_probability"]

# Carrier-sense thresholds on the SNR at which one sender hears another,
# dB: at or above CS_FULL_DB sensing is perfect, at or below CS_NONE_DB
# the pair is hidden, and in between sensing succeeds with a probability
# interpolated linearly.
CS_FULL_DB = 4.0
CS_NONE_DB = 2.0
# Association floor, dB: an AP serves a sender only if it hears it at
# least this strongly (the paper's experiment selection). It sits above
# CS_NONE_DB, so an associated client is never *hidden* from its own AP.
REACHABLE_DB = 3.0


class SensingClass(enum.Enum):
    """How well two senders hear each other."""

    PERFECT = "perfect"
    PARTIAL = "partial"
    HIDDEN = "hidden"


def snr_sense_probability(snr: float) -> float:
    """P(a sender detects another heard at *snr* dB): 1 at or above
    :data:`CS_FULL_DB`, 0 at or below :data:`CS_NONE_DB`, linear in
    between. The one carrier-sense rule of both :class:`Testbed` and
    :class:`~repro.testbed.deployment.Deployment`."""
    if snr >= CS_FULL_DB:
        return 1.0
    if snr <= CS_NONE_DB:
        return 0.0
    return (snr - CS_NONE_DB) / (CS_FULL_DB - CS_NONE_DB)


def classify_sensing(p: float) -> SensingClass:
    """The sensing class of a pair that senses with probability *p*."""
    if p >= 1.0:
        return SensingClass.PERFECT
    if p <= 0.0:
        return SensingClass.HIDDEN
    return SensingClass.PARTIAL


@dataclass
class Testbed:
    """Positions + link SNRs + sensing rules for one experiment campaign.

    Parameters
    ----------
    positions:
        (n, 2) array of node coordinates in meters.
    snr_db:
        Symmetric (n, n) matrix of link SNRs at the receiver, dB.

    Sensing between senders follows :func:`snr_sense_probability`.
    """

    positions: np.ndarray
    snr_db: np.ndarray

    def __post_init__(self) -> None:
        self.positions = np.asarray(self.positions, dtype=float)
        self.snr_db = np.asarray(self.snr_db, dtype=float)
        n = self.positions.shape[0]
        if self.positions.ndim != 2 or self.positions.shape[1] != 2:
            raise ConfigurationError("positions must be (n, 2)")
        if self.snr_db.shape != (n, n):
            raise ConfigurationError("snr matrix shape mismatch")

    @property
    def n_nodes(self) -> int:
        return self.positions.shape[0]

    # ------------------------------------------------------------------
    def sense_probability(self, a: int, b: int) -> float:
        """Probability that sender a detects sender b's transmission."""
        return snr_sense_probability(self.snr_db[a, b])

    def sensing_class(self, a: int, b: int) -> SensingClass:
        return classify_sensing(min(self.sense_probability(a, b),
                                    self.sense_probability(b, a)))

    def sensing_mix(self) -> dict[SensingClass, float]:
        """Fraction of usable sender pairs in each sensing class.

        A pair is usable when some AP hears both senders at or above
        :data:`REACHABLE_DB` (mirrors the paper's experiment selection)."""
        counts = {cls: 0 for cls in SensingClass}
        total = 0
        for a, b in combinations(range(self.n_nodes), 2):
            if not self.choose_aps(a, b):
                continue
            total += 1
            counts[self.sensing_class(a, b)] += 1
        if total == 0:
            raise ConfigurationError("no usable sender pairs in testbed")
        return {cls: counts[cls] / total for cls in SensingClass}

    def choose_aps(self, a: int, b: int) -> list[int]:
        """Candidate APs that hear both senders at or above
        :data:`REACHABLE_DB`."""
        aps = []
        for node in range(self.n_nodes):
            if node in (a, b):
                continue
            if (self.snr_db[node, a] >= REACHABLE_DB
                    and self.snr_db[node, b] >= REACHABLE_DB):
                aps.append(node)
        return aps

    def sample_pair(self, rng: np.random.Generator) -> tuple[int, int, int]:
        """Random (sender_a, sender_b, ap) with a reachable AP (§5.6)."""
        for _ in range(10_000):
            a, b = rng.choice(self.n_nodes, size=2, replace=False)
            aps = self.choose_aps(int(a), int(b))
            if aps:
                return int(a), int(b), int(rng.choice(aps))
        raise ConfigurationError("could not sample a usable sender pair")


def default_testbed(seed: int = 7, *,
                    n_nodes: int = 14,
                    area_m: float = 30.0,
                    model: LogDistancePathLoss | None = None) -> Testbed:
    """A 14-node indoor layout with a paper-like sensing mix.

    Nodes are scattered over an L-shaped office footprint; the path-loss
    exponent, shadowing, and carrier-sense thresholds were calibrated so
    the usable-pair mix lands near the paper's 12% hidden / 8% partial /
    80% perfect (averaged over seeds: ~11% / 6% / 83%). Link SNRs follow
    the shared link budget of :mod:`repro.testbed.pathloss`, clamped to
    :data:`~repro.testbed.pathloss.MAX_SNR_DB`.
    """
    rng = make_rng(seed)
    model = model or LogDistancePathLoss(exponent=3.0, shadowing_db=6.0)
    # L-shaped layout: two wings meeting at a corner, like an office floor.
    positions = np.empty((n_nodes, 2))
    for i in range(n_nodes):
        if i % 2 == 0:
            positions[i] = [rng.uniform(0, area_m), rng.uniform(0, area_m / 3)]
        else:
            positions[i] = [rng.uniform(0, area_m / 3),
                            rng.uniform(0, area_m)]
    distances = np.linalg.norm(
        positions[:, None, :] - positions[None, :, :], axis=2)
    loss = model.sample_loss_db(distances, rng)
    loss = 0.5 * (loss + loss.T)  # reciprocal links
    snr = TX_POWER_DBM - loss - NOISE_FLOOR_DBM
    np.fill_diagonal(snr, np.inf)
    snr = np.minimum(snr, MAX_SNR_DB)
    return Testbed(positions=positions, snr_db=snr)
