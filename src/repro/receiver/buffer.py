"""Store of recent unmatched collisions (§4.2.2), generalized to sets (§4.5).

"The AP stores recent unmatched collisions (i.e., stores the received
complex samples). It is sufficient to store the few most recent collisions
because, in 802.11, colliding sources try to retransmit a failed
transmission as soon as the medium is available."

Beyond the paper's pairwise match, the buffer doubles as a *collision-set
matcher*: stored collisions whose pairwise match scores clear the
threshold are linked, and a new collision's match candidates are the
whole connected component it joins — so k mutually-hidden senders whose k
collisions arrived over several receptions can be assembled into one
decodable set even when the oldest and newest collisions no longer score
directly against each other (the chain of intermediate links carries the
identification). Pairwise matching falls out as the k = 2 case: a
component of one stored record plus the new collision.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.phy.correlation import CorrelationPeak

__all__ = ["CollisionRecord", "CollisionBuffer", "gaps_close"]

# Two collisions whose successive peak gaps all differ by less than this
# many samples repeat one arrival pattern (§4.5's degenerate case).
GAP_TOLERANCE = 2


# eq=False: records compare (and are removed) by identity. The generated
# field-wise __eq__ would compare the sample arrays, which raises on
# numpy's ambiguous truth value the moment deque.remove scans *past* a
# different record — silently leaving matched records in the buffer.
@dataclass(eq=False)
class CollisionRecord:
    """One stored collision: raw samples plus detected packet starts.

    ``estimates`` memoizes channel acquisitions on these samples, keyed
    by (peak position, coarse frequency), so every decode attempt the
    record takes part in reuses them; ``sampled`` keeps the
    matched-filter preamble outputs those acquisitions took, keyed by
    start sample. The buffer stores its samples read-only, which is what
    keeps both memos valid.
    """

    samples: np.ndarray
    peaks: list[CorrelationPeak]
    sequence: int = 0
    meta: dict = field(default_factory=dict)
    estimates: dict = field(default_factory=dict, repr=False)
    sampled: dict = field(default_factory=dict, repr=False)

    @property
    def n_peaks(self) -> int:
        """Number of packets detected in this collision."""
        return len(self.peaks)

    @property
    def offset(self) -> int:
        """Offset Δ of the second packet relative to the first (samples)."""
        if len(self.peaks) < 2:
            raise ConfigurationError("record holds fewer than two packets")
        positions = sorted(p.position for p in self.peaks)
        return positions[1] - positions[0]

    @property
    def gaps(self) -> tuple[int, ...]:
        """Successive peak gaps (samples) — the k-way generalization of
        ``offset``; two collisions with the same gap tuple are the §4.5
        identical-offset degenerate case and cannot be disentangled."""
        positions = sorted(p.position for p in self.peaks)
        return tuple(b - a for a, b in zip(positions, positions[1:]))


def gaps_close(a: CollisionRecord, b: CollisionRecord) -> bool:
    """Are two collisions' peak-gap tuples indistinguishable (§4.5)?

    True when both hold the same number of packets and every successive
    gap differs by less than :data:`GAP_TOLERANCE` samples — the
    configuration in which the linear system is degenerate and ZigZag
    cannot make progress (Assertion 4.5.1's failure condition). For
    two-packet records this is exactly the historical
    ``abs(d_new - d_old) < 2`` check.
    """
    if a.n_peaks != b.n_peaks:
        return False
    return all(abs(ga - gb) < GAP_TOLERANCE
               for ga, gb in zip(a.gaps, b.gaps))


class _UnionFind:
    """Tiny union-find over record sequence numbers."""

    def __init__(self, keys) -> None:
        self._parent = {k: k for k in keys}

    def find(self, key: int) -> int:
        parent = self._parent
        root = key
        while parent[root] != root:
            root = parent[root]
        while parent[key] != root:       # path compression
            parent[key], key = root, parent[key]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[ra] = rb


class CollisionBuffer:
    """A small FIFO of unmatched collision records with set matching.

    Pairwise link scores between stored records are computed lazily (the
    first time a scorer asks for them) and cached until one of the two
    records leaves the buffer, so a long-running receiver never re-scores
    the same stored pair twice.
    """

    def __init__(self, capacity: int = 4) -> None:
        if capacity < 1:
            raise ConfigurationError("buffer capacity must be >= 1")
        self.capacity = capacity
        self._records: deque[CollisionRecord] = deque()
        self._counter = 0
        # (low sequence, high sequence) -> score, or None when the pair
        # cannot be aligned long enough to score (short alignment).
        self._links: dict[tuple[int, int], float | None] = {}

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    def add(self, samples, peaks, meta: dict | None = None) -> CollisionRecord:
        """Store a new collision; see :meth:`store`."""
        return self.store(CollisionRecord(
            samples=np.asarray(samples, dtype=complex).ravel(),
            peaks=list(peaks),
            meta=dict(meta or {}),
        ))

    def store(self, record: CollisionRecord) -> CollisionRecord:
        """Store *record* itself (with whatever it has memoized), evicting
        the oldest records beyond capacity.

        The samples become read-only: a stored collision is evidence for
        later decodes, so any in-place write to it raises instead of
        silently invalidating the record's memoized estimates.
        """
        record.samples.setflags(write=False)
        record.sequence = self._counter
        self._counter += 1
        while len(self._records) >= self.capacity:
            self._forget(self._records.popleft())
        self._records.append(record)
        return record

    def remove(self, record: CollisionRecord) -> bool:
        """Remove *record*; True when it was present.

        Callers that just matched a record must assert on the return value
        — a False here means the record was already evicted or removed, a
        logic error in the caller's bookkeeping, not a benign no-op.
        """
        try:
            self._records.remove(record)
        except ValueError:
            return False
        self._forget(record)
        return True

    def prune(self, keep) -> int:
        """Drop every record for which ``keep(record)`` is falsy.

        Returns the number of records dropped. Used by long-running
        receivers to age out collisions whose retransmission window has
        passed (a stale record can never match, it only wastes scans).
        """
        survivors = [r for r in self._records if keep(r)]
        dropped = [r for r in self._records if not keep(r)]
        if dropped:
            self._records.clear()
            self._records.extend(survivors)
            for record in dropped:
                self._forget(record)
        return len(dropped)

    def newest_first(self) -> list[CollisionRecord]:
        """Candidates for matching, most recent first (retransmissions are
        expected to arrive immediately after the original collision)."""
        return list(reversed(self._records))

    def clear(self) -> None:
        self._records.clear()
        self._links.clear()

    # ------------------------------------------------------------------
    # Collision-set matching (§4.5)
    # ------------------------------------------------------------------
    def _forget(self, record: CollisionRecord) -> None:
        """Drop cached link scores involving a departed record, keeping
        the cache bounded over arbitrarily long sessions."""
        seq = record.sequence
        stale = [key for key in self._links if seq in key]
        for key in stale:
            del self._links[key]

    def link_score(self, a: CollisionRecord, b: CollisionRecord,
                   scorer) -> float | None:
        """Cached pairwise link score between two stored records.

        *scorer* is ``scorer(a, b) -> float`` (typically aligned
        cross-correlation at the second peaks, §4.2.2); a
        :class:`~repro.errors.ConfigurationError` from it — the pair
        cannot be aligned long enough to score — is cached as ``None``.
        """
        key = (min(a.sequence, b.sequence), max(a.sequence, b.sequence))
        if key not in self._links:
            try:
                self._links[key] = float(scorer(a, b))
            except ConfigurationError:
                self._links[key] = None
        return self._links[key]

    def component(self, seeds: list[CollisionRecord], scorer,
                  threshold: float) -> list[CollisionRecord]:
        """Stored records transitively linked to any of *seeds*.

        Builds the match graph over the stored records holding the same
        packet count as the seeds (a k-way set is assembled from k-packet
        collisions only, so cross-cardinality edges could never join the
        component and their correlations would be wasted) — an edge
        wherever the cached pairwise link score clears *threshold* and
        the gap signatures differ (identical-gap pairs are degenerate,
        §4.5) — union-finds its components, and returns the members of
        the seeds' component (the seeds themselves excluded), newest
        first. With no transitive links this reduces to the
        directly-matched records, i.e. pairwise §4.2.2 behaviour.
        """
        if not seeds:
            return []
        k = seeds[0].n_peaks
        eligible = [r for r in self._records
                    if r.n_peaks == k and r.n_peaks >= 2]
        seed_set = {id(s) for s in seeds}
        members = [r for r in eligible if id(r) not in seed_set]
        if not members:
            return []
        uf = _UnionFind([r.sequence for r in eligible]
                        + [s.sequence for s in seeds
                           if s.sequence not in
                           {r.sequence for r in eligible}])
        for i, a in enumerate(eligible):
            for b in eligible[i + 1:]:
                if gaps_close(a, b):
                    continue
                score = self.link_score(a, b, scorer)
                if score is not None and score >= threshold:
                    uf.union(a.sequence, b.sequence)
        roots = {uf.find(s.sequence) for s in seeds}
        linked = [r for r in members if uf.find(r.sequence) in roots]
        return list(reversed(linked))
