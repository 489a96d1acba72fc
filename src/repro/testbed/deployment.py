"""Geometry-derived multi-cell deployments: positions -> SNR -> topology.

ZigZag's premise is that hidden terminals arise from *geometry*: senders
outside each other's carrier-sense range colliding at a shared AP
(Fig 5-1). :class:`Deployment` makes that derivation explicit for a whole
city block rather than one hand-declared cell: APs land on a jittered
grid, clients scatter uniformly, every link's SNR comes from the
log-distance path-loss model with symmetrized shadowing, clients
associate with the AP they hear best (above an association floor), and
pairwise carrier sensing *between co-cell clients* is classified from
inter-client SNR exactly like :class:`~repro.testbed.topology.Testbed`
does for sender pairs.

The output of the derivation is a :class:`CellPlan` per AP — client
names, per-client SNR at the serving AP, per-pair sense probabilities
and the resulting hidden-pair set — which is exactly what the link
layer consumes (``repro.link.topology.Topology.from_cell``). Cross-cell
links stay available on the full SNR matrix for inter-cell interference
exchange (:meth:`Deployment.interferers`).
"""

from __future__ import annotations

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
from repro.testbed.topology import (
    REACHABLE_DB,
    SensingClass,
    classify_sensing,
    snr_sense_probability,
)
from repro.utils.rng import make_rng

__all__ = ["CellPlan", "Deployment", "DeploymentConfig", "client_name"]

# Frame headers carry an 8-bit src field; global client ids are
# ``index + 1`` so they must fit in one byte.
_MAX_CLIENTS = 255
# An out-of-cell client interferes with an AP that hears it at least
# this strongly (dB); weaker cross links stay below the noise the AP
# already synthesizes. The coupled coordinator
# (repro.link.MultiCellSession) exchanges these waveforms.
INTERFERENCE_FLOOR_DB = -2.0
# Every deployment's path-loss model: the model's defaults.
PATHLOSS = LogDistancePathLoss()


def client_name(index: int) -> str:
    """Canonical session name of global client *index* (``c0``, ``c1``...)."""
    return f"c{index}"


@dataclass(frozen=True)
class DeploymentConfig:
    """Knobs of one generated deployment.

    Links follow :data:`PATHLOSS`; carrier sensing between co-cell
    clients and the association floor use the
    :class:`~repro.testbed.topology.Testbed` rules
    (:func:`~repro.testbed.topology.snr_sense_probability`,
    :data:`~repro.testbed.topology.REACHABLE_DB`): a client that hears
    no AP at or above the floor stays unassociated.
    """

    n_aps: int = 2
    n_clients: int = 8
    area_m: float = 120.0

    def __post_init__(self) -> None:
        if self.n_aps < 1 or self.n_clients < 1:
            raise ConfigurationError(
                "deployment needs at least one AP and one client")
        if self.n_clients > _MAX_CLIENTS:
            raise ConfigurationError(
                f"n_clients must be <= {_MAX_CLIENTS} "
                "(client ids ride the frame's 8-bit src field)")
        if self.area_m <= 0:
            raise ConfigurationError("area_m must be positive")


@dataclass(frozen=True)
class CellPlan:
    """One AP's derived cell, in the vocabulary the link layer speaks.

    ``clients`` are *global* client indices; ``names``/``srcs``/
    ``snr_db`` align with them. ``pair_probabilities`` lists every
    in-cell client pair (ordered ``names`` index pairs) with its sense
    probability; ``hidden_pairs`` is the subset with probability 0 —
    the cell's deterministic hidden topology.
    """

    ap: int
    clients: tuple[int, ...]
    names: tuple[str, ...]
    srcs: tuple[int, ...]
    snr_db: tuple[float, ...]
    pair_probabilities: tuple[tuple[str, str, float], ...]
    hidden_pairs: tuple[tuple[str, str], ...]

    @property
    def n_clients(self) -> int:
        return len(self.clients)

    def client_index(self, name: str) -> int:
        """Global client index behind a session *name*."""
        try:
            return self.clients[self.names.index(name)]
        except ValueError:
            raise ConfigurationError(
                f"cell of AP {self.ap} has no client {name!r}") from None


class Deployment:
    """A generated multi-cell layout with its full link-SNR matrix.

    Nodes are indexed APs first: node ``a < n_aps`` is AP *a*, node
    ``n_aps + i`` is client *i*. ``snr_db`` is the symmetric
    (n_aps + n_clients)² matrix of link SNRs; helpers below address it
    by (ap, client) or (client, client) pairs directly.
    """

    def __init__(self, config: DeploymentConfig,
                 ap_positions: np.ndarray,
                 client_positions: np.ndarray,
                 snr_db: np.ndarray) -> None:
        self.config = config
        self.ap_positions = np.asarray(ap_positions, dtype=float)
        self.client_positions = np.asarray(client_positions, dtype=float)
        self.snr_db = np.asarray(snr_db, dtype=float)
        n = config.n_aps + config.n_clients
        if self.ap_positions.shape != (config.n_aps, 2) \
                or self.client_positions.shape != (config.n_clients, 2):
            raise ConfigurationError("deployment position shape mismatch")
        if self.snr_db.shape != (n, n):
            raise ConfigurationError("deployment SNR matrix shape mismatch")
        # Association by strongest link, above the reachable floor.
        links = self.snr_db[:config.n_aps,
                            config.n_aps:]          # (n_aps, n_clients)
        best = np.argmax(links, axis=0)
        strongest = links[best, np.arange(config.n_clients)]
        self._serving = np.where(strongest >= REACHABLE_DB,
                                 best, -1)

    # ------------------------------------------------------------------
    @classmethod
    def generate(cls, config: DeploymentConfig,
                 seed: int = 7) -> "Deployment":
        """Draw one layout: APs on a jittered grid, clients uniform.

        All randomness (positions, shadowing) comes from *seed* alone,
        so a deployment is reproducible from its (config, seed) pair and
        safely shareable across worker processes.
        """
        rng = make_rng(seed)
        cfg = config
        # APs on a jittered sqrt-grid: regular enough for city-like
        # coverage, jittered enough that cell borders vary by seed.
        grid = int(np.ceil(np.sqrt(cfg.n_aps)))
        pitch = cfg.area_m / grid
        ap_positions = np.empty((cfg.n_aps, 2))
        for a in range(cfg.n_aps):
            gx, gy = a % grid, a // grid
            ap_positions[a] = [
                (gx + 0.5) * pitch + rng.uniform(-0.2, 0.2) * pitch,
                (gy + 0.5) * pitch + rng.uniform(-0.2, 0.2) * pitch,
            ]
        client_positions = rng.uniform(0.0, cfg.area_m,
                                       size=(cfg.n_clients, 2))
        positions = np.vstack([ap_positions, client_positions])
        distances = np.linalg.norm(
            positions[:, None, :] - positions[None, :, :], axis=2)
        loss = PATHLOSS.sample_loss_db(distances, rng)
        loss = 0.5 * (loss + loss.T)    # reciprocal links
        snr = TX_POWER_DBM - loss - NOISE_FLOOR_DBM
        snr = np.minimum(snr, MAX_SNR_DB)
        np.fill_diagonal(snr, np.inf)   # self-links are not links
        return cls(cfg, ap_positions, client_positions, snr)

    # ------------------------------------------------------------------
    @property
    def n_aps(self) -> int:
        return self.config.n_aps

    @property
    def n_clients(self) -> int:
        return self.config.n_clients

    def ap_client_snr(self, ap: int, client: int) -> float:
        """Link SNR between AP *ap* and global client *client*, dB."""
        return float(self.snr_db[ap, self.n_aps + client])

    def client_snr(self, a: int, b: int) -> float:
        """Inter-client link SNR (the carrier-sense input), dB."""
        return float(self.snr_db[self.n_aps + a, self.n_aps + b])

    def sense_probability(self, a: int, b: int) -> float:
        """P(client *a* detects client *b*): the Testbed rule
        (:func:`~repro.testbed.topology.snr_sense_probability`)."""
        return snr_sense_probability(self.client_snr(a, b))

    def sensing_class(self, a: int, b: int) -> SensingClass:
        return classify_sensing(self.sense_probability(a, b))

    def serving_ap(self, client: int) -> int | None:
        """The AP this client associates with (strongest link above the
        reachable floor), or None when out of every AP's range."""
        ap = int(self._serving[client])
        return None if ap < 0 else ap

    def associated_clients(self, ap: int) -> tuple[int, ...]:
        return tuple(int(i) for i in np.flatnonzero(self._serving == ap))

    def unassociated_clients(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.flatnonzero(self._serving < 0))

    # ------------------------------------------------------------------
    def cell(self, ap: int) -> CellPlan:
        """The derived plan of AP *ap*'s cell (may hold zero clients)."""
        members = self.associated_clients(ap)
        names = tuple(client_name(i) for i in members)
        pairs = []
        hidden = []
        for x, y in combinations(range(len(members)), 2):
            p = self.sense_probability(members[x], members[y])
            pairs.append((names[x], names[y], p))
            if p <= 0.0:
                hidden.append((names[x], names[y]))
        return CellPlan(
            ap=ap,
            clients=members,
            names=names,
            srcs=tuple(i + 1 for i in members),
            snr_db=tuple(self.ap_client_snr(ap, i) for i in members),
            pair_probabilities=tuple(pairs),
            hidden_pairs=tuple(hidden),
        )

    def cells(self) -> tuple[CellPlan, ...]:
        """Every cell that has at least one associated client, by AP."""
        plans = (self.cell(ap) for ap in range(self.n_aps))
        return tuple(plan for plan in plans if plan.clients)

    def interferers(self, ap: int,
                    floor_db: float = INTERFERENCE_FLOOR_DB
                    ) -> tuple[tuple[int, float], ...]:
        """Out-of-cell clients AP *ap* hears at or above *floor_db*.

        Returns ``(client, snr_at_ap)`` pairs sorted strongest first —
        the cross-cell transmitters whose waveforms reach this cell's
        receiver and must be exchanged as interference.
        """
        out = [(i, self.ap_client_snr(ap, i))
               for i in range(self.n_clients)
               if int(self._serving[i]) != ap]
        return tuple(sorted(((i, s) for i, s in out if s >= floor_db),
                            key=lambda pair: -pair[1]))

    def sensing_mix(self) -> dict[SensingClass, float]:
        """Fraction of co-cell client pairs in each sensing class."""
        counts = {cls: 0 for cls in SensingClass}
        total = 0
        for plan in self.cells():
            for x, y in combinations(plan.clients, 2):
                counts[self.sensing_class(x, y)] += 1
                total += 1
        if total == 0:
            raise ConfigurationError(
                "deployment has no co-cell client pairs")
        return {cls: counts[cls] / total for cls in SensingClass}
