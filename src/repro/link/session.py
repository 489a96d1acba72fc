"""The closed-loop AP session: N clients, continuous air, live feedback.

This is the paper's §4.2.2/§4.4 system actually *running as a system*:
clients contend for the medium with slotted DCF-style backoff (hidden
pairs cannot sense each other and collide), their packets land on a
:class:`~repro.link.air.ContinuousAir` stream, a
:class:`~repro.link.segmenter.BurstSegmenter` carves receptions out of
the stream, and the AP decodes each burst. Decoded packets are ACKed a
SIFS after the burst — for ZigZag-resolved pairs only when the offset
between the colliding packets admits the synchronous-ACK scheme of
Lemma 4.4.1 (otherwise the earlier-finishing sender misses its ACK and
retransmits; the AP recognizes the duplicate and ACKs it then). Senders
that miss an ACK retransmit the *same* frame with fresh backoff jitter —
which is exactly what lands the retransmission back in the AP's
collision-buffer match path and lets ZigZag resolve the stored collision.

Everything is sample-clocked: MAC slots, SIFS/ACK durations
(:mod:`repro.mac.timing` scaled onto the sample clock), packet airtime,
and ACK timeouts. Memory stays bounded for arbitrarily long sessions —
the air holds only in-flight waveforms, the segmenter only the open
burst, and the collision buffer ages out stale records.

The session runs its own heap-ordered event loop (kinds and priorities
in :mod:`repro.link.events`) instead of visiting every slot boundary,
so wall time scales with *busy* air rather than with simulated air.
Client arrivals, backoff expiries, TX starts/ends, ACK deliveries and
ACK timeouts are discrete events carrying absolute sample indices, and
the medium advances *lazily*: noise and burst segmentation are
synthesized only over chunks that overlap a scheduled waveform (or an
open burst), while idle gaps are skipped in O(1) via
:meth:`ContinuousAir.skip` / :meth:`BurstSegmenter.skip`.

Timing follows slotted 802.11 MAC semantics:

- every MAC decision lands on the global slot grid (events are pushed at
  the smallest slot boundary >= their raw time, the first boundary at
  which a slotted MAC observes the condition);
- at one boundary, chunk processing runs before ACK delivery, which runs
  before client decisions (in client list order);
- carrier sense uses the slot-consistent snapshot rule: a transmission
  occupies ``[start, tx_end)`` and is sensed at boundary ``t`` iff
  ``start < t < tx_end``, so same-boundary decisions are independent of
  client order — two contenders whose backoff expires on the same
  boundary both transmit, and a transmission that ends at ``t`` is no
  longer sensed at ``t``.

A packet's terminal fate is decided here and nowhere else: ACK
delivery, the :data:`MAX_ATTEMPTS` drop, and :meth:`LinkSession.finish` at
the runaway cap.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.api import ReceiverConfig, ReceiverStats
from repro.errors import ConfigurationError, ReproError
from repro.link.air import ContinuousAir
from repro.link.aps import build_ap
from repro.link.events import (
    ACK_DELIVERY,
    ACK_TIMEOUT,
    AIR_CHUNK,
    ARRIVAL,
    PRIO_ACK,
    PRIO_AIR,
    PRIO_CLIENT,
    TX_END,
    TX_START,
    EventQueue,
    RadioState,
)
from repro.link.segmenter import (
    HANG_WINDOW,
    OPEN_WINDOW,
    PAD,
    BurstSegmenter,
)
from repro.link.topology import Topology
from repro.mac.ack import plan_synchronous_acks
from repro.mac.backoff import BackoffPicker, FixedWindowBackoff
from repro.mac.timing import SLOT_SAMPLES, TIMING_80211G
from repro.phy.channel import PHASE_NOISE_STD, TX_EVM, ChannelParams
from repro.phy.estimation import COARSE_FREQ_ERROR
from repro.phy.frame import Frame
from repro.phy.impairments import ImpairmentPipeline
from repro.phy.medium import Transmission, require_air_interface
from repro.phy.noise import NOISE_POWER
from repro.phy.preamble import PREAMBLE, Preamble
from repro.phy.pulse import SHAPER, PulseShaper
from repro.testbed.metrics import BER_DELIVERY_THRESHOLD, FlowStats
from repro.utils.bits import random_bits

__all__ = ["CHUNK_SAMPLES", "MAX_ATTEMPTS", "StreamClient", "SessionConfig",
           "SessionReport", "LinkSession"]

# Transmissions per packet before the sender drops it.
MAX_ATTEMPTS = 6
# Samples the medium advances per air chunk: the segmenter's and the
# multi-cell coordinator's step.
CHUNK_SAMPLES = 1024


@dataclass(frozen=True)
class StreamClient:
    """One associated client: identity, link budget, traffic model."""

    name: str
    src: int
    snr_db: float
    freq_offset: float = 0.0
    # Fraction of one packet-airtime this client offers per packet-airtime
    # (Poisson arrivals with mean gap ``packet_samples / offered_load``);
    # None means saturated — a fresh packet the instant the previous one
    # resolves.
    offered_load: float | None = None

    def __post_init__(self) -> None:
        if self.offered_load is not None and not 0 < self.offered_load <= 1:
            raise ConfigurationError("offered_load must be in (0, 1]")


@dataclass(frozen=True)
class SessionConfig:
    """Knobs of one closed-loop session."""

    payload_bits: int = 240
    n_packets: int = 6               # packets per client
    backoff: BackoffPicker = field(
        default_factory=lambda: FixedWindowBackoff(16))
    # Who senses whom (:class:`~repro.link.topology.Topology`:
    # explicit hidden pairs/cliques, one shared sense probability, or
    # derived from a deployment's geometry), fixed for the session. The
    # default draws every pair as hidden.
    topology: Topology = Topology.probabilistic(0.0)
    # k of the AP's k-way collision resolution. None: derived as the
    # largest deterministically mutually-hidden group in the topology;
    # probabilistic topologies keep the pairwise default unless this is
    # set.
    max_collision_packets: int | None = None
    sender_impairments: ImpairmentPipeline | None = None
    capture_impairments: ImpairmentPipeline | None = None
    max_samples: int | None = None             # safety cap; None: derived

    def __post_init__(self) -> None:
        if self.n_packets < 1:
            raise ConfigurationError("counts must be positive")
        if self.max_collision_packets is not None \
                and self.max_collision_packets < 2:
            raise ConfigurationError(
                "max_collision_packets must be >= 2")

    @property
    def preamble_length(self) -> int:
        """Symbols of the preamble every frame opens with (read-only)."""
        return len(PREAMBLE)

    def collision_packets(self) -> int:
        """The AP's k: explicit override, or the largest mutually-hidden
        group in the declared topology (at least the pairwise 2)."""
        if self.max_collision_packets is not None:
            return self.max_collision_packets
        return self.topology.collision_packets()


@dataclass
class SessionReport:
    """What one session produced, AP-side."""

    design: str
    flows: dict[str, FlowStats]
    samples_elapsed: int
    packet_samples: int
    receiver_stats: ReceiverStats
    counters: dict[str, float]
    timed_out: bool = False
    elapsed_s: float = 0.0

    @property
    def airtime_packets(self) -> float:
        """Session length in packet-airtime units (the throughput base)."""
        return self.samples_elapsed / max(self.packet_samples, 1)

    @property
    def total_delivered(self) -> int:
        return sum(s.delivered for s in self.flows.values())

    def throughput(self, name: str | None = None) -> float:
        """Delivered packets per packet-airtime of elapsed medium time."""
        shared = max(self.airtime_packets, 1e-9)
        if name is None:
            return self.total_delivered / shared
        return self.flows[name].delivered / shared


class _ClientState:
    """Mutable MAC state of one client inside a running session."""

    def __init__(self, client: StreamClient, index: int = 0) -> None:
        self.client = client
        self.index = index          # position in the session's client list
        self.state = RadioState.IDLE
        self.packets_done = 0
        self.seq = -1
        self.frame: Frame | None = None
        self.waveform: np.ndarray | None = None   # the frame, shaped
        self.attempt = 0
        self.attempts_used = 0
        self.backoff = 0
        self.tx_end = 0
        self.ack_deadline = 0
        self.next_arrival = 0
        # Event-loop bookkeeping: generation counter invalidating stale
        # heap events, and the anchor/expiry of the currently-scheduled
        # backoff countdown.
        self.gen = 0
        self.contend_anchor = 0
        self.pending_tx_time = 0

    @property
    def key(self) -> tuple[int, int]:
        # Wrapped like the on-air header's seq field, so AP-side decode
        # keys (which come from parsed headers) keep matching past 4096
        # packets. Only one packet per client is in flight at a time, and
        # per-packet state is pruned at resolution, so reuse is safe.
        return (self.client.src, self.seq % 4096)


class LinkSession:
    """Drive one closed-loop session to completion (see module docstring).

    :meth:`run` is :meth:`start`, then :meth:`step_until` with no
    horizon, then :meth:`finish`. A multi-cell coordinator calls the
    three itself to interleave several sessions on one shared horizon.
    *preamble* and *shaper* may only be the air interface's own
    (:func:`~repro.phy.medium.require_air_interface`).
    """

    def __init__(self, config: SessionConfig, clients: list[StreamClient],
                 design: str = "zigzag",
                 rng: np.random.Generator | None = None,
                 preamble: Preamble | None = None,
                 shaper: PulseShaper | None = None) -> None:
        if not clients:
            raise ConfigurationError("session needs at least one client")
        if len({c.src for c in clients}) != len(clients):
            raise ConfigurationError("client src ids must be unique")
        self.config = config
        self.design = design
        self.rng = rng or np.random.default_rng(0)
        require_air_interface(preamble, shaper)

        # Sample-clocked 802.11 timing.
        spu = SLOT_SAMPLES / TIMING_80211G.slot_us
        self.sifs = max(1, round(TIMING_80211G.sifs_us * spu))
        self.ack_air = max(1, round(TIMING_80211G.ack_us * spu))

        # Every packet in a session is the same length: probe it once.
        probe = Frame.make(np.zeros(config.payload_bits, dtype=np.uint8),
                           src=1)
        self.packet_samples = SHAPER.shape(probe.symbols).size
        self.expected_symbols = probe.n_symbols

        # Worst-case ACK lag: the colliding partner may finish up to a
        # contention window later, the segmenter closes a hang window
        # after silence, and the burst is only processed at the next
        # chunk boundary.
        jitter = config.backoff.window(0) * SLOT_SAMPLES
        self.ack_timeout = (jitter + HANG_WINDOW
                            + CHUNK_SAMPLES + self.sifs
                            + self.ack_air + 4 * SLOT_SAMPLES)

        self.air = ContinuousAir(self.rng, config.capture_impairments)
        self.segmenter = BurstSegmenter()
        # k-way reception: the AP decomposes collisions into as many
        # packets as the topology's largest mutually-hidden group, and
        # buffers enough collisions to assemble a full k-way set.
        k = config.collision_packets()
        self.ap = build_ap(design, ReceiverConfig(
            expected_symbols=self.expected_symbols,
            buffer_capacity=max(4, 2 * (k - 1)),
            max_collision_packets=k))

        # Association (§4.2.1): the AP holds a coarse frequency estimate
        # for every client, as obtained at association time.
        for client in clients:
            self.ap.clients.update(
                client.src,
                client.freq_offset
                + float(self.rng.normal(0, COARSE_FREQ_ERROR)))

        self.clients = [_ClientState(c, i) for i, c in enumerate(clients)]
        self._by_src = {c.client.src: c for c in self.clients}

        # Pairwise sensing, fixed for the whole session: hidden pairs
        # (and cliques of n mutually-hidden clients) stay hidden, which
        # is the paper's topology model.
        names = [c.name for c in clients]
        self.topology = config.topology
        self._sense = self.topology.sense_matrix(names, self.rng)

        self.flows = {c.name: FlowStats() for c in clients}
        self.truth: dict[tuple[int, int], np.ndarray] = {}
        self.decode_ber: dict[tuple[int, int], float] = {}
        self.acked: set[tuple[int, int]] = set()
        self.tx_log: dict[tuple[int, int], tuple[int, int]] = {}
        self.counters: dict[str, float] = {
            "transmissions": 0, "bursts": 0, "acks": 0, "acks_dropped": 0,
            "acks_infeasible": 0, "duplicate_decodes": 0,
            "ack_timeouts": 0, "packets_dropped": 0, "packets_lost": 0,
            "unresolved_at_cap": 0, "packets_unoffered_at_cap": 0,
        }

        # The event loop.
        self.q = EventQueue()
        self.slot = SLOT_SAMPLES
        self.chunk = CHUNK_SAMPLES
        self.now = 0
        self.timed_out = False
        # Client list index -> (start, tx_end) of its in-flight waveform.
        self.active_tx: dict[int, tuple[int, int]] = {}
        # Chunk-end indices with a pending AIR_CHUNK event.
        self.pending_chunks: set[int] = set()
        # Noise context synthesized around each waveform: enough history
        # ahead of the edge for the open detector's reach-back, enough
        # tail for the hang window to confirm silence and close.
        self._lead = OPEN_WINDOW + PAD
        self._tail = 2 * HANG_WINDOW

    # ------------------------------------------------------------------
    # Driving the loop.
    def run(self) -> SessionReport:
        started = time.perf_counter()
        self.start()
        self.step_until(None)
        return self.finish(started)

    def start(self) -> None:
        """Arm the loop: seed initial arrivals, derive the runaway cap."""
        self.max_samples = self._max_samples()
        self.done = sum(1 for c in self.clients
                        if c.state == RadioState.DONE)
        self.finished = self.done >= len(self.clients)
        for c in self.clients:
            if c.state == RadioState.IDLE:
                self.q.push(max(self._boundary(c.next_arrival), 0),
                            PRIO_CLIENT, c.index, ARRIVAL, (c.index, c.gen))

    def next_time(self) -> int | None:
        """Earliest pending event time (None when finished or drained)."""
        if self.finished:
            return None
        return self.q.peek_time()

    def step_until(self, t_stop: int | None) -> bool:
        """Dispatch every event with time < *t_stop* (all, when None).

        Returns True while the session is still live (events at or past
        *t_stop* remain); False once every client resolved, the queue
        drained, or the runaway cap fired — after which only
        :meth:`finish` remains to be called.
        """
        while not self.finished:
            if self.done >= len(self.clients) or not len(self.q):
                self.finished = True
                break
            next_time = self.q.peek_time()
            if t_stop is not None and next_time >= t_stop:
                return True
            if next_time >= self.max_samples:
                # The event at the cap stays queued: an ACK among the
                # queued events is still delivered (or dropped) by
                # finish.
                self.timed_out = True
                self.now = self._boundary(self.max_samples)
                self.finished = True
                break
            _time, _prio, _tie, _seq, kind, data = self.q.pop()
            self.now = max(self.now, next_time)
            if kind == AIR_CHUNK:
                self._on_chunk(data, self.now)
            elif kind == ACK_DELIVERY:
                self._on_ack(data, self.now)
            elif kind == ARRIVAL:
                self._on_arrival(data, self.now)
            elif kind == TX_START:
                self._on_tx_start(data, self.now)
            elif kind == TX_END:
                self._on_tx_end(data, self.now)
            elif kind == ACK_TIMEOUT:
                self._on_ack_timeout(data, self.now)
        return False

    def finish(self, started: float) -> SessionReport:
        """End-of-session accounting.

        Order matters: flush the segmenter first (a still-open burst may
        decode and plan ACKs), then deliver-or-drop every late ACK, then
        let in-flight clients act on them — and only then charge
        whatever is still unresolved to the cap.
        """
        now = self.now
        late = []
        for burst in self.segmenter.flush():
            late += self._process_burst(burst, now)
        if self.timed_out:
            # ACKs planned before the cap but due after it.
            while len(self.q):
                at, _prio, _tie, _seq, kind, data = self.q.pop()
                if kind == ACK_DELIVERY:
                    late.append((at, *data))
        # Late ACKs are delivered out of band; entries for
        # already-resolved keys are explicitly dropped rather than left
        # queued.
        for _at, src, seq in late:
            if (src, seq) in self.truth:
                self.acked.add((src, seq))
            else:
                self.counters["acks_dropped"] += 1
        for client in self.clients:
            if client.state in (RadioState.CONTEND, RadioState.TX,
                                RadioState.AWAIT_ACK) \
                    and client.key in self.acked:
                self._close_packet(client)
        if self.timed_out:
            for client in self.clients:
                if client.state == RadioState.DONE:
                    continue
                # Every client cut off by the cap is accounted for —
                # including ones idling in IDLE between arrivals, whose
                # remaining traffic would otherwise silently vanish from
                # the offered-load bookkeeping.
                self.counters["unresolved_at_cap"] += 1
                pending = self.config.n_packets - client.packets_done
                if client.frame is not None:
                    self._close_packet(client)
                    pending -= 1
                self.counters["packets_unoffered_at_cap"] += max(pending, 0)
                client.packets_done = self.config.n_packets
                client.state = RadioState.DONE

        counters = dict(self.counters)
        counters["max_resident_samples"] = float(
            self.air.max_resident_samples
            + self.segmenter.max_resident_samples)
        counters["samples_emitted"] = float(self.air.samples_emitted)
        counters["samples_skipped"] = float(self.air.samples_skipped)
        counters["forced_closes"] = float(self.segmenter.forced_closes)
        return SessionReport(
            design=self.design,
            flows=self.flows,
            samples_elapsed=now,
            packet_samples=self.packet_samples,
            receiver_stats=self.ap.stats,
            counters=counters,
            timed_out=self.timed_out,
            elapsed_s=time.perf_counter() - started,
        )

    def _max_samples(self) -> int:
        """The runaway cap: explicit, or derived from worst-case MAC
        arithmetic (every packet retried to the limit, each attempt
        paying full airtime, timeout and contention) plus twice the
        slowest client's expected arrival span (Poisson gaps of mean
        ``packet_samples / offered_load``)."""
        cfg = self.config
        if cfg.max_samples is not None:
            return cfg.max_samples
        per_attempt = (self.packet_samples + self.ack_timeout
                       + cfg.backoff.window(0) * SLOT_SAMPLES)
        total_attempts = (len(self.clients) * cfg.n_packets
                          * MAX_ATTEMPTS)
        loads = [c.client.offered_load for c in self.clients
                 if c.client.offered_load is not None]
        arrival_span = (cfg.n_packets * self.packet_samples / min(loads)
                        if loads else 0)
        return (2 * total_attempts * per_attempt + int(2 * arrival_span)
                + 8 * CHUNK_SAMPLES)

    def _boundary(self, t: int) -> int:
        """Smallest slot-grid boundary >= *t* (where a slotted MAC first
        observes a condition raised at raw time *t*)."""
        return -(-int(t) // self.slot) * self.slot

    # ------------------------------------------------------------------
    # Medium: lazy synthesis over covered chunks only.
    def _schedule_chunk(self, chunk_end: int) -> None:
        if chunk_end in self.pending_chunks or chunk_end <= self.air.cursor:
            return
        self.pending_chunks.add(chunk_end)
        self.q.push(max(self._boundary(chunk_end), self.now),
                    PRIO_AIR, chunk_end, AIR_CHUNK, chunk_end)

    def cover_air(self, start: int, end: int) -> None:
        """Schedule synthesis for every chunk a waveform (plus noise
        context) touches; everything between stays symbolic.

        Public because it is the injection contract of the multi-cell
        coordinator: after :meth:`ContinuousAir.inject` lands foreign
        energy on ``[start, end)``, the victim session must synthesize
        the touched chunks instead of skipping them symbolically.
        """
        lo = max((start - self._lead) // self.chunk, 0)
        hi = (end + self._tail) // self.chunk
        for k in range(lo, hi + 1):
            self._schedule_chunk((k + 1) * self.chunk)

    def _on_chunk(self, chunk_end: int, now: int) -> None:
        air, segmenter = self.air, self.segmenter
        self.pending_chunks.discard(chunk_end)
        if chunk_end <= air.cursor:
            return
        gap = chunk_end - self.chunk - air.cursor
        if gap > 0:
            if segmenter.is_open:
                # An open burst must see a gapless stream; synthesize the
                # uncovered span instead of skipping it. (Continuation
                # scheduling makes this path unreachable in practice.)
                while air.cursor < chunk_end - self.chunk:
                    step = min(self.chunk,
                               chunk_end - self.chunk - air.cursor)
                    self._feed(air.emit(step), now)
            else:
                air.skip(gap)
                segmenter.skip(gap)
        self._feed(air.emit(self.chunk), now)
        if segmenter.is_open:
            # A burst outlived its scheduled coverage (e.g. back-to-back
            # collisions): keep the air flowing until it closes.
            self._schedule_chunk(chunk_end + self.chunk)

    def _feed(self, samples, now: int) -> None:
        acks = []
        for burst in self.segmenter.push(samples):
            acks += self._process_burst(burst, now)
        # Delivered at the first boundary >= their air time, in air-time
        # order.
        for at, src, seq in sorted(acks):
            self.q.push(max(self._boundary(at), now), PRIO_ACK, 0,
                        ACK_DELIVERY, (src, seq))

    # ------------------------------------------------------------------
    # The AP.
    def _process_burst(self, burst, now: int) -> list[tuple[int, int, int]]:
        """Decode one burst; returns its planned ACKs as ``(air time,
        src, seq)``."""
        self.counters["bursts"] += 1
        try:
            decoded = self.ap.receive(burst.samples)
        except ReproError:
            return []
        results = [r for r in decoded
                   if r.header is not None
                   and r.header.src in self._by_src]
        if not results:
            return []
        for result in results:
            key = (result.header.src, result.header.seq)
            truth = self.truth.get(key)
            if truth is None:
                continue
            ber = result.ber_against(truth)
            if key in self.decode_ber:
                # The AP already holds this packet from an earlier burst
                # — the §4.4 infeasible-ACK path: the sender missed its
                # ACK and retransmitted, and the AP recognizes the
                # duplicate (and will ACK it below).
                self.counters["duplicate_decodes"] += 1
            self.decode_ber[key] = min(self.decode_ber.get(key, 1.0), ber)

        acks = []
        base = max(now, burst.end + self.sifs)
        for rank, (src, seq) in enumerate(self._plan_acks(results)):
            # Successive ACKs are serialized on the air (Fig 4-5): SIFS +
            # ACK per earlier ACK of the same burst.
            acks.append((base + rank * (self.sifs + self.ack_air), src, seq))
            self.counters["acks"] += 1
        return acks

    def _plan_acks(self, results) -> list[tuple[int, int]]:
        """Which decoded packets can be synchronously ACKed (§4.4).

        Lemma 4.4.1, generalized to a k-way resolved set: the
        last-finishing packet is always ACKable (nothing drowns its
        ACK); an earlier-finishing packet can be ACKed only while the
        last packet is still transmitting, so its ACK slot — SIFS + ACK,
        serialized after any earlier ACK of the same set — must fit in
        the last packet's remaining tail. For a pair this is exactly the
        lemma's offset >= SIFS + ACK condition.
        """
        keys = [(r.header.src, r.header.seq) for r in results]
        if len(keys) < 2:
            return keys
        # Use the MAC truth of each sender's latest transmission.
        spans = [self.tx_log.get(key) for key in keys]
        if any(span is None for span in spans):
            return keys
        order = sorted(range(len(keys)), key=lambda i: spans[i][1])
        last = order[-1]
        ackable = {last}
        # The serialization rule lives in mac.ack (single source of
        # truth with the Lemma 4.4.1 analysis); here it runs on the
        # sample clock like everything else in the session.
        flags = plan_synchronous_acks(
            [spans[i][1] for i in order[:-1]], spans[last][1],
            self.sifs, self.ack_air)
        for i, feasible in zip(order[:-1], flags):
            if feasible:
                ackable.add(i)
            else:
                # This sender misses its ACK (still-transmitting
                # neighbours drown it); it will retransmit and the AP,
                # already holding the packet, ACKs the duplicate
                # immediately.
                self.counters["acks_infeasible"] += 1
        return [keys[i] for i in range(len(keys)) if i in ackable]

    # ------------------------------------------------------------------
    # MAC events.
    def _on_ack(self, key: tuple[int, int], now: int) -> None:
        if key not in self.truth:
            # Stale ACK for a resolved key, counted like finish() does.
            self.counters["acks_dropped"] += 1
            return
        self.acked.add(key)
        client = self._by_src.get(key[0])
        if client is None or client.key != key:
            return
        if client.state in (RadioState.CONTEND, RadioState.AWAIT_ACK):
            self._resolve(client, now)
        # In TX the client acts on the ACK at its own TX_END boundary.

    def _on_arrival(self, data: tuple[int, int], now: int) -> None:
        idx, gen = data
        client = self.clients[idx]
        if client.gen != gen or client.state != RadioState.IDLE:
            return
        self._begin_packet(client)
        self._schedule_tx(client, now)

    def _on_tx_start(self, data: tuple[int, int], now: int) -> None:
        idx, gen = data
        client = self.clients[idx]
        if client.gen != gen or client.state != RadioState.CONTEND:
            return
        self._transmit(client, now)
        self.active_tx[idx] = (now, client.tx_end)
        self.q.push(self._boundary(client.tx_end), PRIO_CLIENT, idx,
                    TX_END, (idx, client.gen))
        self.cover_air(now, client.tx_end)
        # Freeze the backoff of contenders that sense this transmission.
        # Snapshot rule: the new waveform is not sensed at its own start
        # boundary, so a pending same-boundary TX_START still fires (a
        # genuine same-slot collision) and decrements through *now* have
        # already happened.
        for other in self.clients:
            if other.index == idx \
                    or other.state != RadioState.CONTEND \
                    or not self._sense[other.index, idx] \
                    or other.pending_tx_time <= now:
                continue
            consumed = 0
            if now >= other.contend_anchor:
                consumed = (now - other.contend_anchor) // self.slot + 1
            other.backoff = max(other.backoff - consumed, 0)
            self._schedule_tx(other, now)

    def _on_tx_end(self, data: tuple[int, int], now: int) -> None:
        idx, gen = data
        client = self.clients[idx]
        if client.gen != gen or client.state != RadioState.TX:
            return
        self.active_tx.pop(idx, None)
        if client.key in self.acked:    # ACK landed mid-transmission
            self._resolve(client, now)
            return
        client.state = RadioState.AWAIT_ACK
        client.ack_deadline = client.tx_end + self.ack_timeout
        self.q.push(self._boundary(client.ack_deadline), PRIO_CLIENT, idx,
                    ACK_TIMEOUT, (idx, client.gen))

    def _on_ack_timeout(self, data: tuple[int, int], now: int) -> None:
        idx, gen = data
        client = self.clients[idx]
        if client.gen != gen or client.state != RadioState.AWAIT_ACK:
            return
        if client.key in self.acked:    # pragma: no cover - ACK events
            self._resolve(client, now)  # at this boundary resolve first
            return
        self.counters["ack_timeouts"] += 1
        client.attempt += 1
        if client.attempt >= MAX_ATTEMPTS:
            self.counters["packets_dropped"] += 1
            self._resolve(client, now)
        else:
            client.backoff = self.config.backoff.pick(client.attempt,
                                                      self.rng)
            client.state = RadioState.CONTEND
            self._schedule_tx(client, now)

    # ------------------------------------------------------------------
    def _begin_packet(self, client: _ClientState) -> None:
        """Draw *client*'s next frame and its first backoff."""
        client.seq += 1
        payload = random_bits(self.config.payload_bits, self.rng)
        client.frame = Frame.make(payload, src=client.client.src,
                                  seq=client.seq % 4096)
        # Every attempt sends the same waveform, and shaping draws no
        # randomness: shape once per packet. Read-only, as it is shared.
        client.waveform = SHAPER.shape(client.frame.symbols)
        client.waveform.flags.writeable = False
        self.truth[client.key] = client.frame.body_bits
        client.attempt = 0
        client.attempts_used = 0
        client.backoff = self.config.backoff.pick(0, self.rng)
        client.state = RadioState.CONTEND
        if client.client.offered_load is not None:
            gap = self.rng.exponential(
                self.packet_samples / client.client.offered_load)
            client.next_arrival += int(gap)

    def _transmit(self, client: _ClientState, now: int) -> None:
        """Put *client*'s frame on the air with a fresh channel draw."""
        cfg = self.config
        amplitude = np.sqrt(10.0 ** (client.client.snr_db / 10.0)
                            * NOISE_POWER)
        params = ChannelParams(
            gain=amplitude * np.exp(1j * self.rng.uniform(0, 2 * np.pi)),
            freq_offset=client.client.freq_offset,
            sampling_offset=float(self.rng.uniform(0, 1)),
            phase_noise_std=PHASE_NOISE_STD,
            tx_evm=TX_EVM,
            impairments=cfg.sender_impairments,
        )
        tx = Transmission.from_waveform(
            client.waveform, client.frame.symbols.size, params, now,
            client.client.name)
        client.tx_end = now + self.air.schedule(tx)
        client.attempts_used += 1
        self.tx_log[client.key] = (now, client.tx_end)
        self.counters["transmissions"] += 1
        client.state = RadioState.TX

    def _busy_until(self, client: _ClientState) -> int:
        """Absolute end of the latest in-flight transmission this client
        senses (0 when its medium is idle)."""
        ends = [end for idx, (_start, end) in self.active_tx.items()
                if self._sense[client.index, idx]]
        return max(ends, default=0)

    def _schedule_tx(self, client: _ClientState, now: int) -> None:
        """(Re)compute when *client*'s backoff expires and push TX_START.

        The first decrement boundary is the first boundary after *now*
        at which the client's sensed medium is idle (boundary >= every
        sensed transmission's end); with ``backoff`` decrements left the
        transmission fires ``backoff`` slots after that. Any sensed TX
        starting in between re-invokes this with the decrements consumed
        so far subtracted — the frozen-backoff rule, computed in O(1)
        instead of slot by slot.
        """
        anchor = now + self.slot
        busy_until = self._busy_until(client)
        if busy_until > anchor:
            anchor = self._boundary(busy_until)
        client.contend_anchor = anchor
        client.pending_tx_time = anchor + client.backoff * self.slot
        client.gen += 1
        self.q.push(client.pending_tx_time, PRIO_CLIENT, client.index,
                    TX_START, (client.index, client.gen))

    def _resolve(self, client: _ClientState, now: int) -> None:
        """Close the client's current packet and schedule what follows."""
        client.gen += 1             # invalidate in-flight MAC events
        self._close_packet(client)
        if client.state == RadioState.DONE:
            self.done += 1
            return
        self.q.push(max(self._boundary(client.next_arrival),
                        now + self.slot),
                    PRIO_CLIENT, client.index, ARRIVAL,
                    (client.index, client.gen))

    def _close_packet(self, client: _ClientState) -> None:
        """Account the current packet (acked, dropped, or cut off)."""
        ber = self.decode_ber.pop(client.key, 1.0)
        self.flows[client.client.name].record(ber,
                                              airtime=client.attempts_used)
        if ber >= BER_DELIVERY_THRESHOLD:
            self.counters["packets_lost"] += 1
        # Per-packet bookkeeping dies with the packet — sessions stay
        # bounded in memory no matter how long they run (late ACKs and
        # duplicate decodes for a resolved key are simply ignored).
        self.truth.pop(client.key, None)
        self.tx_log.pop(client.key, None)
        self.acked.discard(client.key)
        client.packets_done += 1
        client.frame = None
        client.waveform = None
        if client.packets_done >= self.config.n_packets:
            client.state = RadioState.DONE
        else:
            client.state = RadioState.IDLE
