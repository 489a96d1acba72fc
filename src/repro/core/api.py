"""The access points: one receive path for the 802.11 and ZigZag designs.

:class:`StandardAp` is the Current-802.11 baseline (§5.1e) and the first
stage of every AP. It owns the one detector (:data:`COLLISION_BETA`), the
one client-table acquisition (memoized on the capture's
:class:`~repro.receiver.buffer.CollisionRecord`) and the one standard
stage: standard-decode the two strongest peaks that score at least
:data:`SYNC_THRESHOLD`, each at its best-gain client frequency, keeping one
success per source.

:class:`ZigZagReceiver` extends it with the paper's implementation flow
control (§5.1d):

1. Run the standard stage. A success at the strongest peak ends the
   flow (a correlation spike elsewhere in a cleanly-decoded packet is
   treated as the false positive it almost always is).
2. Otherwise a capture with two or more peaks is a collision: search
   stored collisions for matches (§4.2.2) under the best peak
   correspondence, since jitter reorders arrivals; on a match,
   ZigZag-decode the collision set — pairs per §4.2.3, and k mutually
   hidden senders across k collisions per §4.5, assembling the set from
   the collision buffer's match graph; otherwise store the collision in
   case it helps decode a future one.

Successes of step 2 are merged with the stage's by source, so on the
same capture the ZigZag AP returns every packet the baseline returns.
The closed loop has no capture-effect SIC stage (Fig 4-1e) yet: a
strong packet the standard stage decodes is not subtracted to look for
a weak one under it.

Both maintain the per-client coarse frequency-offset table the paper
describes ("the AP can maintain coarse estimates of the frequency
offsets of active clients as obtained at the time of association"),
updated from every successful decode.

Both run inside the closed-loop sessions of :mod:`repro.link`. For
Monte-Carlo campaigns over them use the :mod:`repro.runner` subsystem
(its ``ap_stream`` scenario compares the two APs on the same air);
``python -m repro run scenario.toml`` is the supported experiment entry
point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from repro.errors import CollisionDetectError, ConfigurationError, ReproError
from repro.phy.estimation import ChannelEstimate
from repro.phy.frame import HEADER_BITS
from repro.phy.preamble import Preamble, default_preamble
from repro.phy.pulse import PulseShaper
from repro.phy.sync import Synchronizer
from repro.receiver.buffer import (
    GAP_TOLERANCE,
    CollisionBuffer,
    CollisionRecord,
)
from repro.receiver.decoder import StandardDecoder
from repro.receiver.frontend import StreamConfig
from repro.receiver.result import DecodeResult
from repro.zigzag.decoder import ZigZagMultiDecoder
from repro.zigzag.detect import CollisionDetector
from repro.zigzag.engine import PacketSpec, PlacementParams
from repro.zigzag.match import match_score

__all__ = ["ClientTable", "ReceiverConfig", "ReceiverStats", "StandardAp",
           "ZigZagReceiver"]

# EWMA weight of each fresh decode in the client table's offset estimate.
CLIENT_SMOOTHING = 0.25


@dataclass
class ClientTable:
    """Per-client coarse frequency-offset estimates (§4.2.1, §4.2.4b).

    Updated with an EWMA (weight :data:`CLIENT_SMOOTHING`) from every
    successful decode; the long-run accuracy is far better than a single
    32-symbol preamble fit, which is exactly why the paper leans on it
    for collision decoding.
    """

    _freqs: dict[int, float] = field(default_factory=dict)

    def update(self, src: int, freq_offset: float) -> None:
        """Fold a fresh per-decode offset estimate into the EWMA."""
        if src in self._freqs:
            old = self._freqs[src]
            self._freqs[src] = (1 - CLIENT_SMOOTHING) * old \
                + CLIENT_SMOOTHING * freq_offset
        else:
            self._freqs[src] = freq_offset

    def get(self, src: int, default: float = 0.0) -> float:
        """The current coarse offset estimate for client *src*."""
        return self._freqs.get(src, default)

    def candidates(self) -> list[float]:
        """Frequency hypotheses for collision detection: the distinct
        per-client estimates, sorted.

        Only an empty table falls back to ``[0.0]``. Once a client is
        known, 0 is not added: sessions seed the table at association, so
        every client already has its own hypothesis."""
        values = sorted(set(round(v, 9) for v in self._freqs.values()))
        if not values:
            return [0.0]
        return values

    def __len__(self) -> int:
        return len(self._freqs)


# Preamble-correlation score a peak needs for the standard stage to
# decode it (the standard decoder's own default is 0.6).
SYNC_THRESHOLD = 0.5
# Detection threshold of every packet start. Collision decoding runs only
# after the standard stage fails, so a liberal beta is safe: false
# positives cost compute, not packets (§5.3a), while false negatives
# forfeit ZigZag opportunities.
COLLISION_BETA = 0.42
# Samples of the §4.2.2 aligned correlation that scores a match. The
# window opens after each packet's preamble and header
# (ZigZagReceiver._peak_alignment), so it holds payload only.
MATCH_WINDOW = 256
# §4.2.2 identity threshold on the mean payload-window score, at every k.
# A true match scores about each packet's share of the capture power
# (~1/k); different packets score at the floor of a MATCH_WINDOW-sample
# correlation (median ~0.1 at k = 2-4), which does not shrink with k
# (docs/performance.md, "False identity matches").
MATCH_THRESHOLD = 0.15
# Frequency-assignment hypotheses a k-way set is decoded under, best
# first (ZigZagReceiver._acquire_set_placements).
MAX_ASSIGNMENTS = 2
# Age (in receive() calls) after which a stored collision is pruned.
# 802.11 retransmissions arrive within a few receptions of the original
# collision (§4.2.2), so a record this old can never match — it only
# wastes buffer scans.
BUFFER_MAX_AGE = 24


@dataclass(frozen=True)
class ReceiverConfig:
    """Knobs of a ZigZag AP."""

    # Frame extent in symbols of every packet on the air (the session's
    # uniform frame length). It is authoritative for collision decoding:
    # the PLCP-like header carries no checksum, so a header peeked
    # *through* interference can parse into a plausible garbage length
    # and poison the whole collision set.
    expected_symbols: int
    preamble: Preamble = field(default_factory=default_preamble)
    shaper: PulseShaper = field(default_factory=PulseShaper)
    buffer_capacity: int = 4
    # Most packets a single collision may be decomposed into (the k of
    # §4.5). The default keeps the historical pairwise detector: weaker
    # third spikes on a two-packet collision are far more likely to be
    # data sidelobes than real packets. Deployments with k mutually
    # hidden clients (the streaming session derives this from its
    # topology) raise it to k so k-way collision sets can form.
    max_collision_packets: int = 2

    def __post_init__(self) -> None:
        if self.max_collision_packets < 2:
            raise ConfigurationError(
                "max_collision_packets must be >= 2")

    def stream_config(self) -> StreamConfig:
        """The equivalent chunk-decoder configuration."""
        return StreamConfig(preamble=self.preamble, shaper=self.shaper)


@dataclass
class ReceiverStats:
    """Running counters of one receiver's life on the air.

    The streaming session driver (:mod:`repro.link`) surfaces these per
    soak run; they are also what distinguishes "ZigZag never engaged"
    from "ZigZag engaged and failed" when a scenario underdelivers.
    A collision's packets reach the AP only through the standard stage
    (``clean_decodes``) or a ZigZag decode (``zigzag_matches``): the
    closed-loop AP has no capture-effect SIC stage, so no counter exists
    for one.
    """

    captures: int = 0
    clean_decodes: int = 0
    collisions_detected: int = 0
    collisions_stored: int = 0
    zigzag_matches: int = 0
    short_alignments: int = 0   # stored records skipped as unscoreable
    evictions_capacity: int = 0
    evictions_age: int = 0
    # Match-path observability: every stored record actually scored
    # against a new collision counts one attempt; scores below the match
    # threshold count a reject. "Buffer scanned but nothing cleared the
    # bar" (attempts high, rejects == attempts) is therefore
    # distinguishable from "nothing was ever scoreable" (attempts == 0)
    # in soak runs.
    match_attempts: int = 0
    match_rejects_threshold: int = 0
    # k-way (§4.5) counters, all three over collision sets of three or
    # more captures: the sets handed to the multi decoder, how many of
    # those resolved at least one packet, and the packets they resolved.
    # A set of k >= 3 packets tried from only two captures (too few
    # stored matches) counts in zigzag_matches alone.
    multiway_attempts: int = 0
    multiway_matches: int = 0
    packets_multiway: int = 0   # packets recovered by k-way decodes


# Weight of an assignment edge that must not be used: the runner-up
# search forbids one edge of the optimum at a time.
_FORBIDDEN = -1e12


def _max_assignment(weights: np.ndarray) -> tuple[float, tuple[int, ...]]:
    """Exact maximum-weight injective assignment of rows to columns.

    *weights* is ``(k, n)`` with ``k <= n``. Returns ``(total, cols)``:
    row i takes column ``cols[i]`` and *total* sums the chosen weights.
    Entries at or below :data:`_FORBIDDEN` are forbidden edges; the
    assignment uses as few as the shape allows and, among those, has the
    largest total, so a forbidden edge shows in *total* only when every
    assignment needs one.

    The Hungarian method in its shortest-augmenting-path form: rows join
    one at a time, each by a Dijkstra search over reduced costs kept
    non-negative by row and column potentials, so every partial matching
    is optimal for the rows it holds. O(k²n); k is at most the receiver's
    ``max_collision_packets``. A forbidden edge costs more than any
    reshuffle of allowed ones can gain, but only just, so the potentials
    stay at the scale of the real weights.
    """
    weights = np.asarray(weights, dtype=float)
    k, n = weights.shape
    if k > n:
        raise ConfigurationError("assignment needs at least as many "
                                 "columns as rows")
    allowed = weights > _FORBIDDEN
    scale = float(np.abs(weights[allowed]).max(initial=0.0))
    cost = np.where(allowed, -weights, 2.0 * k * scale + 1.0).tolist()
    row_pot = [0.0] * (k + 1)
    col_pot = [0.0] * (n + 1)
    # owner[j]: 1-based row holding column j (0: free); column 0 is the
    # search root, holding the row being added.
    owner = [0] * (n + 1)
    for row in range(1, k + 1):
        owner[0] = row
        col = 0
        dist = [math.inf] * (n + 1)
        prev = [0] * (n + 1)
        seen = [False] * (n + 1)
        while owner[col]:
            seen[col] = True
            i = owner[col]
            line = cost[i - 1]
            delta, nearest = math.inf, 0
            for j in range(1, n + 1):
                if not seen[j]:
                    reduced = line[j - 1] - row_pot[i] - col_pot[j]
                    if reduced < dist[j]:
                        dist[j], prev[j] = reduced, col
                    if dist[j] < delta:
                        delta, nearest = dist[j], j
            for j in range(n + 1):
                if seen[j]:
                    row_pot[owner[j]] += delta
                    col_pot[j] -= delta
                else:
                    dist[j] -= delta
            col = nearest
        while col:  # augment along the shortest path back to the root
            owner[col] = owner[prev[col]]
            col = prev[col]
    cols = [0] * k
    for j in range(1, n + 1):
        if owner[j]:
            cols[owner[j] - 1] = j - 1
    return float(weights[np.arange(k), cols].sum()), tuple(cols)


class StandardAp:
    """Current 802.11 (§5.1e), and the first stage of every AP.

    Standard-decodes the strongest packet starts of each capture, with no
    collision buffer and no interference cancellation; capture-effect
    receptions emerge when one sender dominates.
    :class:`ZigZagReceiver` inherits the detector, the client-table
    acquisition and :meth:`_standard_stage`, so on the same capture it
    decodes everything this AP decodes.
    """

    def __init__(self, config: ReceiverConfig) -> None:
        self.config = config
        self.clients = ClientTable()
        self.stats = ReceiverStats()
        self.detector = CollisionDetector(config.preamble, config.shaper,
                                          beta=COLLISION_BETA)
        self.synchronizer = Synchronizer(config.preamble, config.shaper,
                                         threshold=COLLISION_BETA)
        self.standard = StandardDecoder(
            config.preamble, config.shaper, sync_threshold=SYNC_THRESHOLD)

    def receive(self, samples) -> list[DecodeResult]:
        """Process one capture; returns the packets it standard-decodes."""
        probe = self._detect(samples)
        if probe is None:
            return []
        peaks = self._stage_peaks(probe)
        if len(peaks) >= 2:
            self.stats.collisions_detected += 1
        return list(self._standard_stage(probe, peaks).values())

    def _detect(self, samples) -> CollisionRecord | None:
        """Count the capture and detect its packet starts at
        :data:`COLLISION_BETA`; None when nothing is detected."""
        y = np.asarray(samples, dtype=complex).ravel()
        self.stats.captures += 1
        try:
            verdict = self.detector.inspect(
                y, self.clients.candidates(),
                max_packets=self.config.max_collision_packets)
        except CollisionDetectError:
            return None   # burst shorter than the preamble waveform
        if not verdict.peaks:
            return None
        # The capture as a record from the start: every acquisition on it
        # (standard stage, each decode attempt) shares its memoized
        # work, and a ZigZag AP stores this same record if nothing
        # resolves it.
        return CollisionRecord(samples=y, peaks=list(verdict.peaks),
                               sequence=-1,
                               meta={"rx": self.stats.captures})

    def _stage_peaks(self, probe: CollisionRecord) -> list:
        """The peaks the standard stage decodes: the two strongest that
        score at least :data:`SYNC_THRESHOLD`, strongest first. A plain AP
        does not hunt for buried preambles."""
        return sorted((p for p in probe.peaks if p.score >= SYNC_THRESHOLD),
                      key=lambda p: -p.score)[:2]

    def _standard_stage(self, probe: CollisionRecord,
                        peaks: list) -> dict[int, DecodeResult]:
        """Standard-decode *peaks*, each at its best-gain client
        frequency; the successes by peak position, one per source."""
        decoded: dict[int, DecodeResult] = {}
        sources: set[int] = set()
        for peak in peaks:
            try:
                result = self._decode_peak(probe, peak)
            except ReproError:
                continue
            if not result.success or result.header is None \
                    or result.header.src in sources:
                continue
            sources.add(result.header.src)
            self._learn(result)
            self.stats.clean_decodes += 1
            decoded[peak.position] = result
        return decoded

    def _learn(self, result: DecodeResult) -> None:
        if result.success and result.header is not None \
                and result.estimate is not None:
            self.clients.update(result.header.src,
                                result.estimate.freq_offset)

    def _estimates(self, record: CollisionRecord,
                   position: int) -> list[ChannelEstimate]:
        """Acquisition at one peak of *record* under every client-table
        frequency (§4.2.4), in candidate order.

        Memoized on the record: the standard stage, every pair or k-way
        decode attempt, and later retries against a stored record all
        reuse one acquisition per (peak, frequency).
        Frequencies not yet memoized share one timing-grid pass, itself
        taken from the record's matched-filter outputs where an earlier
        call sampled them.
        """
        candidates = self.clients.candidates()
        memo = record.estimates
        missing = [f for f in candidates if (position, f) not in memo]
        if missing:
            fresh = self.synchronizer.acquire(
                record.samples, position, coarse_freq=missing,
                sampled=record.sampled)
            memo.update(((position, f), est)
                        for f, est in zip(missing, fresh))
        return [memo[(position, f)] for f in candidates]

    def _best_estimate(self, record: CollisionRecord,
                       position: int) -> ChannelEstimate:
        """The client-table acquisition with the largest fitted gain."""
        return max(self._estimates(record, position),
                   key=lambda est: abs(est.gain))

    def _decode_peak(self, record: CollisionRecord, peak) -> DecodeResult:
        """The standard decoder at *peak*, at its best-gain client
        frequency."""
        return self.standard.decode(
            record.samples, start_position=peak.position,
            estimate=self._best_estimate(record, peak.position))


class ZigZagReceiver(StandardAp):
    """A best-effort 802.11 AP receiver with ZigZag collision decoding."""

    def __init__(self, config: ReceiverConfig) -> None:
        super().__init__(config)
        cfg = self.config
        self.buffer = CollisionBuffer(cfg.buffer_capacity)
        # One decoder serves every set size: the k-copy MRC only engages
        # at three or more captures.
        self.multi_decoder = ZigZagMultiDecoder(cfg.stream_config())
        # Samples from a packet's start to its payload: every packet
        # opens with the same preamble and a near-identical header.
        self._payload_lead = ((len(cfg.preamble) + HEADER_BITS)
                              * cfg.shaper.sps)

    # ------------------------------------------------------------------
    def receive(self, samples) -> list[DecodeResult]:
        """Process one capture; returns every packet *successfully*
        decoded from it — every returned result has ``success`` True.

        May return packets from *earlier* captures too: a collision that
        matches stored ones resolves the whole collision set at once.
        """
        probe = self._detect(samples)
        self._prune_stale()
        if probe is None:
            return []
        # §5.1(d): always run the standard stage first. A success at the
        # strongest peak ends the flow: a correlation spike elsewhere in
        # the packet is almost always a false positive, which "does not
        # prevent correct decoding of that packet".
        decoded = self._standard_stage(probe, self._stage_peaks(probe))
        results = list(decoded.values())
        strongest = max(probe.peaks, key=lambda p: p.score)
        if strongest.position in decoded or probe.n_peaks < 2:
            return results
        self.stats.collisions_detected += 1
        sources = {result.header.src for result in results}
        return results + [result for result in self._handle_collision(probe)
                          if result.header.src not in sources]

    def _prune_stale(self) -> None:
        """Age out stored collisions whose match window has passed."""
        cutoff = self.stats.captures - BUFFER_MAX_AGE
        self.stats.evictions_age += self.buffer.prune(
            lambda record: record.meta.get("rx", cutoff) >= cutoff)

    def _acquire_placements(self, record: CollisionRecord, peaks: list,
                            collision_index: int
                            ) -> list[PlacementParams]:
        """Channel placements for the given peaks of one capture.

        Packet identity is positional: peak *i* of *peaks* is packet
        ``p{i}`` across every capture of a collision set, so callers
        order each capture's peaks by its §4.2.2 correspondence with the
        new collision.
        """
        placements = []
        for i, peak in enumerate(peaks):
            best = self._best_estimate(record, peak.position)
            placements.append(PlacementParams(
                packet=f"p{i}", collision=collision_index,
                start=peak.position + best.sampling_offset,
                estimate=best))
        return placements

    def _peak_alignment(self, record: CollisionRecord,
                        probe: CollisionRecord
                        ) -> tuple[float, tuple[int, ...] | None]:
        """Best peak correspondence between two same-k collisions.

        Retransmission jitter freely reorders the senders' arrival
        within a collision, so peak *i* of one capture need not be peak
        *i* of the other. Score every (probe peak, record peak)
        alignment with the §4.2.2 correlation trick and take the
        permutation maximizing the *mean* per-peak score: any wrong
        correspondence misassigns at least two peaks, so the mean
        separates the true permutation far more reliably than the
        weakest single alignment (each aligned window holds the other
        k − 1 packets as interference, leaving every score near 1/k
        with substantial variance).

        Each window opens ``len(preamble) + HEADER_BITS`` symbols after
        its peak, on the payload. Every packet carries the same preamble,
        and one sender's headers differ only in a few bits, so a window
        at the packet start correlates two *different* packets of the
        same senders almost as well as two copies of one packet: on the
        closed loop most such false matches clear the threshold and cost
        a ZigZag decode that cannot succeed.

        Returns ``(score, perm)`` with ``perm[i]`` the record peak index
        carrying probe packet *i*; ``(−1, None)`` when no fully
        scoreable correspondence exists (short alignments).
        """
        k = probe.n_peaks
        lead = self._payload_lead
        scores = np.full((k, k), np.nan)
        for i in range(k):
            for j in range(k):
                try:
                    scores[i, j] = match_score(
                        record.samples, record.peaks[j].position + lead,
                        probe.samples, probe.peaks[i].position + lead,
                        MATCH_WINDOW)
                except ConfigurationError:
                    pass  # stays nan: that alignment is unscoreable
        best_score, best_perm = -1.0, None
        for perm in permutations(range(k)):
            chosen = [scores[i, perm[i]] for i in range(k)]
            if any(np.isnan(s) for s in chosen):
                continue  # an unscoreable alignment: skip this perm
            score = float(np.mean(chosen))
            if score > best_score:
                best_score, best_perm = score, perm
        if best_perm is None:
            return -1.0, None
        return best_score, best_perm

    @staticmethod
    def _aligned_offsets(record: CollisionRecord,
                         perm: tuple[int, ...]) -> tuple[int, ...]:
        """Packet start offsets relative to packet 0, in probe packet
        order — what must differ between two captures of a set for the
        schedule to make progress (§4.5)."""
        base = record.peaks[perm[0]].position
        return tuple(record.peaks[p].position - base for p in perm)

    def _direct_matches(self, probe: CollisionRecord
                        ) -> tuple[list[CollisionRecord],
                                   dict[int, tuple[float,
                                                   tuple[int, ...]]]]:
        """Stored records whose identity score against *probe* clears the
        match threshold, newest first (§4.2.2), with match-path stats.

        Returns the matches plus every scored record's
        ``(score, permutation)`` (by ``id``) mapping probe packet order
        onto the record's peaks — below-threshold alignments included,
        so the k-way assembly never recomputes one. Every k, pairs
        included, is matched under the best peak correspondence.

        Counter semantics (soak observability): ``match_attempts`` =
        ``short_alignments`` + ``match_rejects_threshold`` + accepted
        matches; degenerate same-arrival-pattern records are skipped
        before counting.
        """
        k = probe.n_peaks
        probe_offsets = self._aligned_offsets(probe, tuple(range(k)))
        matches: list[CollisionRecord] = []
        alignments: dict[int, tuple[float, tuple[int, ...]]] = {}
        for record in self.buffer.newest_first():
            if record.n_peaks != k:
                continue
            score, perm = self._peak_alignment(record, probe)
            if perm is None:
                # A peak too near the end of either capture to hold a
                # payload window (a late or spurious peak) leaves no
                # scoreable correspondence: no match.
                self.stats.match_attempts += 1
                self.stats.short_alignments += 1
                continue
            if all(abs(a - b) < GAP_TOLERANCE for a, b in zip(
                    self._aligned_offsets(record, perm), probe_offsets)):
                continue  # same arrival pattern: degenerate (§4.5)
            self.stats.match_attempts += 1
            alignments[id(record)] = (score, perm)
            if score < MATCH_THRESHOLD:
                self.stats.match_rejects_threshold += 1
                continue
            matches.append(record)
        return matches, alignments

    def _acquire_set_placements(self,
                                layers: list[tuple[CollisionRecord, list]]
                                ) -> list[list[PlacementParams]]:
        """Ranked placement hypotheses for a k-way collision set, each
        with one shared frequency assignment per packet.

        The k packets of a set are k *distinct* clients, and packet
        identity is already aligned across captures — so rather than
        letting every peak independently grab the gain-maximizing client
        frequency (which happily assigns the same client's CFO to two
        packets and derails the engine's correction loops), rank the
        injective packet → client-frequency assignments by total fitted
        preamble gain across all captures. Close client CFOs leave that
        statistic with a razor-thin margin (a Δf of 2e-3 cycles/sample
        costs under 3% of coherent preamble gain), so the top
        :data:`MAX_ASSIGNMENTS` hypotheses are returned for the caller to
        try in order. Falls back to a single independent per-peak selection
        when fewer client frequencies are known than packets.
        """
        candidates = self.clients.candidates()
        k = len(layers[0][1])
        estimates: dict[tuple[int, int, int], ChannelEstimate] = {}
        for ci, (record, peaks) in enumerate(layers):
            for i, peak in enumerate(peaks):
                for fi, est in enumerate(self._estimates(record,
                                                         peak.position)):
                    estimates[(ci, i, fi)] = est

        def build(chooser) -> list[PlacementParams]:
            placements = []
            for ci, (_, peaks) in enumerate(layers):
                for i, peak in enumerate(peaks):
                    est = chooser(ci, i)
                    placements.append(PlacementParams(
                        packet=f"p{i}", collision=ci,
                        start=peak.position + est.sampling_offset,
                        estimate=est))
            return placements

        if len(candidates) < k:
            return [build(lambda ci, i: max(
                (estimates[(ci, i, fi)]
                 for fi in range(len(candidates))),
                key=lambda e: abs(e.gain)))]
        # The objective is separable (one weight per packet × frequency,
        # summed over captures), so this is a linear-assignment problem:
        # solve it exactly rather than enumerating the P(n, k) injective
        # assignments, which blows up as the client table grows. The
        # runner-up is the best of the k re-solves that each forbid one
        # edge of the optimum.
        weights = np.zeros((k, len(candidates)))
        for (ci, i, fi), est in estimates.items():
            weights[i, fi] += abs(est.gain)

        def solve(matrix) -> tuple[float, tuple[int, ...]] | None:
            total, cols = _max_assignment(matrix)
            if total < 0.5 * _FORBIDDEN:
                return None  # forced through a forbidden edge
            return total, cols
        _, best = solve(weights)
        assignments = [best]
        runners: list[tuple[float, tuple[int, ...]]] = []
        for i in range(k):
            reduced = weights.copy()
            reduced[i, best[i]] = _FORBIDDEN
            solved = solve(reduced)
            if solved is not None:
                runners.append(solved)
        for _, assign in sorted(runners, key=lambda entry: -entry[0]):
            if assign not in assignments:
                assignments.append(assign)
            if len(assignments) == MAX_ASSIGNMENTS:
                break
        return [build(lambda ci, i, a=assign: estimates[(ci, i, a[i])])
                for assign in assignments]

    def _decode_collision_set(self, records: list[CollisionRecord],
                              perms: dict[int, tuple[int, ...]],
                              probe: CollisionRecord,
                              n_symbols: int) -> list[DecodeResult]:
        """ZigZag-decode stored collisions plus the new one as one set.

        *records* are ordered oldest first; the new capture (*probe*) is
        the last collision index. Each record's peaks are reordered by
        its *perms* entry so packet ``p{i}`` names the same sender in
        every capture. Returns the successful results (consuming the
        stored records) or an empty list.
        """
        layers = [(record, [record.peaks[p] for p in perms[id(record)]])
                  for record in records] + [(probe, probe.peaks)]
        if probe.n_peaks >= 3:
            hypotheses = self._acquire_set_placements(layers)
        else:
            hypotheses = [[
                placement
                for ci, (record, peaks) in enumerate(layers)
                for placement in self._acquire_placements(record, peaks, ci)
            ]]
        captures = [record.samples for record, _ in layers]
        multiway = len(captures) >= 3
        if multiway:
            self.stats.multiway_attempts += 1
        successes: list[DecodeResult] = []
        for placements in hypotheses:
            specs = {p.packet: PacketSpec(p.packet, n_symbols)
                     for p in placements}
            outcome = self.multi_decoder.decode(captures, specs,
                                                placements)
            successes = [r for r in outcome.results.values() if r.success]
            if successes:
                break
        if not successes:
            return []
        for record in records:
            # The remove must run unconditionally (never inside an
            # assert: python -O would strip the side effect and replay
            # consumed collisions forever).
            removed = self.buffer.remove(record)
            assert removed, \
                "matched collision record vanished from the buffer"
        self.stats.zigzag_matches += 1
        if multiway:
            self.stats.multiway_matches += 1
            self.stats.packets_multiway += len(successes)
        for result in successes:
            self._learn(result)
        return successes

    def _link_scorer(self, a: CollisionRecord,
                     b: CollisionRecord) -> float:
        """Identity score between two *stored* collisions, for the
        buffer's match graph, under the best peak correspondence; raises
        :class:`ConfigurationError` when unscoreable (cached as such)."""
        if a.n_peaks != b.n_peaks:
            return 0.0
        score, perm = self._peak_alignment(a, b)
        if perm is None:
            raise ConfigurationError("no scoreable peak correspondence")
        return score

    def _try_multiway(self, probe: CollisionRecord,
                      matches: list[CollisionRecord],
                      alignments: dict[int, tuple[float,
                                                  tuple[int, ...]]],
                      n_symbols: int) -> list[DecodeResult]:
        """Assemble and decode a k-way collision set (§4.5).

        Grows the direct matches by the buffer's match-graph component
        (collisions transitively linked through pairwise scores), keeps
        the newest candidates whose per-packet arrival patterns are
        pairwise distinct (a degenerate pair can never be disentangled),
        and attempts the decode even when fewer than k - 1 stored
        collisions are available — partial overlap sometimes supports
        resolving the set early, and a failed schedule costs no engine
        time. On failure the new collision simply joins the buffer and
        waits for the next retransmission.
        """
        k = probe.n_peaks
        component = self.buffer.component(
            matches, self._link_scorer, MATCH_THRESHOLD)
        candidates = sorted(
            (r for r in matches + component if r.n_peaks == k),
            key=lambda r: -r.sequence)
        probe_offsets = self._aligned_offsets(probe, tuple(range(k)))
        direct = {id(record) for record in matches}
        perms: dict[int, tuple[int, ...]] = {}
        chosen: list[CollisionRecord] = []
        offsets_seen = [probe_offsets]
        for record in candidates:
            entry = alignments.get(id(record))
            if entry is None:
                continue  # unscoreable against the probe
            score, perm = entry
            if id(record) not in direct and score < 0.5 * MATCH_THRESHOLD:
                # Transitively linked only: its direct probe alignment
                # still has to clear a sanity bar for the peak
                # correspondence to be trusted.
                continue
            offsets = self._aligned_offsets(record, perm)
            if any(all(abs(a - b) < GAP_TOLERANCE
                       for a, b in zip(offsets, seen))
                   for seen in offsets_seen):
                continue  # degenerate against the probe or a chosen one
            perms[id(record)] = perm
            chosen.append(record)
            offsets_seen.append(offsets)
            if len(chosen) == k - 1:
                break
        if not chosen:
            return []
        # Oldest first, so collision indices follow arrival order.
        chosen.reverse()
        return self._decode_collision_set(chosen, perms, probe, n_symbols)

    def _handle_collision(self,
                          probe: CollisionRecord) -> list[DecodeResult]:
        k = probe.n_peaks
        n_symbols = self.config.expected_symbols

        # (a) match against stored collisions and ZigZag-decode: the
        # k-way set via the buffer's match graph when the collision holds
        # three or more packets, the classic newest-first pair scan for
        # two (each match attempted until one decodes).
        matches, alignments = self._direct_matches(probe)
        if k >= 3 and matches:
            results = self._try_multiway(probe, matches, alignments,
                                         n_symbols)
            if results:
                return results
        elif k == 2:
            for record in matches:
                results = self._decode_collision_set(
                    [record], {id(record): alignments[id(record)][1]},
                    probe, n_symbols)
                if results:
                    return results

        # (b) no match: store and wait for the retransmissions.
        if len(self.buffer) == self.config.buffer_capacity:
            self.stats.evictions_capacity += 1
        self.buffer.store(probe)
        self.stats.collisions_stored += 1
        return []
