"""Who can sense whom: the session's pairwise carrier-sense topology.

A :class:`Topology` is the one way to tell a
:class:`~repro.link.session.LinkSession` (via ``SessionConfig.topology``)
which clients sense each other. Three constructors:

- :meth:`Topology.explicit` — hand-declared hidden pairs/cliques, every
  other pair sensing perfectly: the same per-pair table as
  :meth:`Topology.from_cell`, with every listed pair at probability 0,
  so building the matrix consumes **no** rng draws.
- :meth:`Topology.probabilistic` — each unordered pair senses with one
  shared probability, drawn once per session: one ``rng.uniform()`` per
  ``i < j`` pair in index order, *including* the degenerate 0.0/1.0
  endpoints. ``Topology.probabilistic(0.0)`` is the session default.
- :meth:`Topology.from_cell` — *derived from geometry*: per-pair sense
  probabilities computed from the inter-client SNRs of one cell of a
  :class:`~repro.testbed.deployment.Deployment`.
  Deterministic pairs (probability 0 or 1) consume no randomness;
  partial pairs draw once per session.

Scenario specs reach the same constructors through
:mod:`repro.runner.builders` (``params.hidden_pairs``/``hidden_cliques``
or ``sense_probability`` for stream scenarios, the deployment for city
scenarios).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["Topology", "max_clique_size"]

PROBABILISTIC = "probabilistic"
DERIVED = "derived"


def max_clique_size(names, edges: set[frozenset[str]]) -> int:
    """Largest mutually-hidden group in a hidden-edge graph.

    Exact branch-and-bound search; a session holds at most a few dozen
    clients and hidden graphs are sparse, so this is instant.
    """
    names = list(names)
    if not names:
        return 0
    best = 1

    def extend(size: int, candidates: list[str]) -> None:
        nonlocal best
        best = max(best, size)
        for idx, name in enumerate(candidates):
            if size + len(candidates) - idx <= best:
                return  # bound: cannot beat the incumbent
            extend(size + 1,
                   [other for other in candidates[idx + 1:]
                    if frozenset((name, other)) in edges])

    extend(0, names)
    return best


@dataclass(frozen=True)
class Topology:
    """Pairwise carrier-sense relations among a session's clients."""

    mode: str
    sense_probability: float = 0.0
    # Derived mode: every known pair with its sense probability, as
    # ``(name_a, name_b, p)``; pairs not listed sense perfectly.
    pair_probabilities: tuple[tuple[str, str, float], ...] = ()
    # Provenance label for reports/debugging ("deployment seed=7 ap=3").
    source: str = ""

    def __post_init__(self) -> None:
        if self.mode not in (PROBABILISTIC, DERIVED):
            raise ConfigurationError(
                f"unknown topology mode {self.mode!r}")
        if not 0.0 <= self.sense_probability <= 1.0:
            raise ConfigurationError(
                "sense_probability must be in [0, 1]")

    # -- constructors ---------------------------------------------------
    @classmethod
    def explicit(cls, hidden_pairs=None, hidden_cliques=None) -> "Topology":
        """Hand-declared topology: listed pairs (and every pair inside
        each clique) are hidden; all other pairs sense perfectly."""
        pairs = [tuple(pair) for pair in (hidden_pairs or ())]
        for clique in (hidden_cliques or ()):
            if len(clique) < 2:
                raise ConfigurationError(
                    "hidden cliques need at least two clients")
            pairs.extend((a, b) for i, a in enumerate(clique)
                         for b in clique[i + 1:])
        return cls(mode=DERIVED,
                   pair_probabilities=tuple((a, b, 0.0) for a, b in pairs))

    @classmethod
    def probabilistic(cls, sense_probability: float) -> "Topology":
        """Each unordered pair senses with one shared probability,
        drawn once per session in client-index order."""
        return cls(mode=PROBABILISTIC,
                   sense_probability=float(sense_probability))

    @classmethod
    def from_cell(cls, plan) -> "Topology":
        """The geometry-derived topology of one deployment cell
        (:class:`~repro.testbed.deployment.CellPlan`)."""
        return cls(mode=DERIVED,
                   pair_probabilities=tuple(plan.pair_probabilities),
                   source=f"deployment ap={plan.ap}")

    # -- queries --------------------------------------------------------
    def hidden_edges(self) -> set[frozenset[str]]:
        """Every *deterministically* hidden client pair, as name sets.

        Derived mode (which :meth:`explicit` builds): pairs whose sense
        probability is 0. Probabilistic mode: empty (nothing is pinned
        before the per-session draw).
        """
        if self.mode == PROBABILISTIC:
            return set()
        return {frozenset((a, b))
                for a, b, p in self.pair_probabilities if p <= 0.0}

    def collision_packets(self) -> int:
        """The AP's k: the largest mutually-hidden group among the
        deterministic hidden edges (at least the pairwise 2)."""
        edges = self.hidden_edges()
        names = sorted({name for edge in edges for name in edge})
        return max(2, max_clique_size(names, edges))

    def sense_matrix(self, names: list[str],
                     rng: np.random.Generator) -> np.ndarray:
        """The symmetric boolean can-sense matrix over *names*.

        Probabilistic mode draws one uniform per ``i < j`` pair in
        order; derived mode draws only for partial (0 < p < 1) pairs, in
        ``i < j`` order, so an explicit topology draws none.
        """
        n = len(names)
        if self.mode == PROBABILISTIC:
            sense = np.zeros((n, n), dtype=bool)
            for i in range(n):
                for j in range(i + 1, n):
                    sense[i, j] = sense[j, i] = \
                        rng.uniform() < self.sense_probability
            return sense
        # Derived: per-pair probabilities; unlisted pairs sense
        # perfectly (co-cell pairs are always listed by from_cell;
        # explicit lists only its hidden pairs).
        lookup = {frozenset((a, b)): p
                  for a, b, p in self.pair_probabilities}
        unknown = {name for pair in lookup for name in pair} - set(names)
        if unknown:
            raise ConfigurationError(
                f"hidden topology names unknown clients: "
                f"{sorted(unknown)}")
        sense = np.ones((n, n), dtype=bool)
        for i in range(n):
            for j in range(i + 1, n):
                p = lookup.get(frozenset((names[i], names[j])), 1.0)
                if p >= 1.0:
                    continue
                if p <= 0.0:
                    sense[i, j] = sense[j, i] = False
                else:
                    sense[i, j] = sense[j, i] = rng.uniform() < p
        return sense
