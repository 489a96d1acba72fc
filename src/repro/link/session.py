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

The loop is driven by the event-driven scheduler of
:mod:`repro.link.events`: MAC time advances symbolically from event to
event (every decision still on the slot grid), and the DSP runs only
over actual burst extents, so wall time scales with *busy* air. The
domain logic it drives (client state machine, burst processing, ACK
planning, end-of-session accounting) lives here.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.api import ReceiverConfig, ReceiverStats
from repro.errors import ConfigurationError
from repro.link.air import AirConfig, ContinuousAir
from repro.link.aps import build_ap
from repro.link.events import EventEngine, RadioState
from repro.link.segmenter import BurstSegmenter, SegmenterConfig
from repro.link.topology import Topology
from repro.mac.ack import plan_synchronous_acks
from repro.mac.backoff import BackoffPicker, FixedWindowBackoff
from repro.mac.timing import TIMING_80211G
from repro.phy.channel import ChannelParams
from repro.phy.frame import Frame
from repro.phy.impairments import ImpairmentPipeline
from repro.phy.medium import Transmission
from repro.phy.preamble import Preamble, default_preamble
from repro.phy.pulse import PulseShaper
from repro.testbed.metrics import BER_DELIVERY_THRESHOLD, FlowStats
from repro.utils.bits import random_bits

__all__ = ["StreamClient", "SessionConfig", "SessionReport", "LinkSession"]

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
    max_attempts: int = 6            # transmissions per packet before drop
    noise_power: float = 1.0
    slot_samples: int = 20
    backoff: BackoffPicker = field(
        default_factory=lambda: FixedWindowBackoff(16))
    phase_noise_std: float = 1e-3
    tx_evm: float = 0.03
    coarse_freq_error: float = 1.5e-5
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
    modulation: str = "bpsk"
    preamble_length: int = 32
    chunk_samples: int = 1024
    buffer_max_age: int = 24         # receiver prunes older stored collisions
    sender_impairments: ImpairmentPipeline | None = None
    capture_impairments: ImpairmentPipeline | None = None
    max_samples: int | None = None             # safety cap; None: derived

    def __post_init__(self) -> None:
        if self.n_packets < 1 or self.max_attempts < 1:
            raise ConfigurationError("counts must be positive")
        if self.slot_samples < 1 or self.chunk_samples < 1:
            raise ConfigurationError("sample counts must be positive")
        if self.max_collision_packets is not None \
                and self.max_collision_packets < 2:
            raise ConfigurationError(
                "max_collision_packets must be >= 2")

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

    def __init__(self, client: StreamClient, session: "LinkSession",
                 index: int = 0) -> None:
        self.client = client
        self.session = session
        self.index = index          # position in the session's client list
        self.state = RadioState.IDLE
        self.packets_done = 0
        self.seq = -1
        self.frame: Frame | None = None
        self.attempt = 0
        self.attempts_used = 0
        self.backoff = 0
        self.tx_end = 0
        self.ack_deadline = 0
        self.next_arrival = 0
        # Event-engine bookkeeping: generation counter invalidating
        # stale heap events, and the anchor/expiry of the
        # currently-scheduled backoff countdown.
        self.gen = 0
        self.contend_anchor = 0
        self.pending_tx_time = 0

    # ------------------------------------------------------------------
    @property
    def key(self) -> tuple[int, int]:
        # Wrapped like the on-air header's seq field, so AP-side decode
        # keys (which come from parsed headers) keep matching past 4096
        # packets. Only one packet per client is in flight at a time, and
        # per-packet state is pruned at resolution, so reuse is safe.
        return (self.client.src, self.seq % 4096)

    def _begin_packet(self, now: int) -> None:
        s = self.session
        self.seq += 1
        payload = random_bits(s.config.payload_bits, s.rng)
        self.frame = Frame.make(payload, src=self.client.src,
                                seq=self.seq % 4096,
                                modulation=s.config.modulation,
                                preamble=s.preamble)
        s.truth[self.key] = self.frame.body_bits
        self.attempt = 0
        self.attempts_used = 0
        self.backoff = s.config.backoff.pick(0, s.rng)
        self.state = RadioState.CONTEND
        if self.client.offered_load is not None:
            gap = s.rng.exponential(
                s.packet_samples / self.client.offered_load)
            self.next_arrival = self.next_arrival + int(gap)

    def _resolve(self, now: int) -> None:
        """Close out the current packet (acked, dropped, or cut off)."""
        s = self.session
        ber = s.decode_ber.pop(self.key, 1.0)
        s.flows[self.client.name].record(ber, airtime=self.attempts_used)
        if ber >= BER_DELIVERY_THRESHOLD:
            s.counters["packets_lost"] += 1
        # Per-packet bookkeeping dies with the packet — sessions stay
        # bounded in memory no matter how long they run (late ACKs and
        # duplicate decodes for a resolved key are simply ignored).
        s.truth.pop(self.key, None)
        s.tx_log.pop(self.key, None)
        s.acked.discard(self.key)
        self.packets_done += 1
        self.frame = None
        if self.packets_done >= s.config.n_packets:
            self.state = RadioState.DONE
        else:
            self.state = RadioState.IDLE

    def _transmit(self, now: int) -> None:
        s = self.session
        cfg = s.config
        amplitude = np.sqrt(10.0 ** (self.client.snr_db / 10.0)
                            * cfg.noise_power)
        params = ChannelParams(
            gain=amplitude * np.exp(1j * s.rng.uniform(0, 2 * np.pi)),
            freq_offset=self.client.freq_offset,
            sampling_offset=float(s.rng.uniform(0, 1)),
            phase_noise_std=cfg.phase_noise_std,
            tx_evm=cfg.tx_evm,
            impairments=cfg.sender_impairments,
        )
        tx = Transmission.from_symbols(self.frame.symbols, s.shaper,
                                       params, now, self.client.name)
        length = s.air.schedule(tx)
        self.tx_end = now + length
        self.attempts_used += 1
        s.tx_log[self.key] = (now, self.tx_end)
        s.counters["transmissions"] += 1
        self.state = RadioState.TX


class LinkSession:
    """Drive one closed-loop session to completion (see module docstring)."""

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
        if preamble is not None and len(preamble) != config.preamble_length:
            raise ConfigurationError(
                "injected preamble length differs from config")
        self.preamble = preamble or default_preamble(config.preamble_length)
        self.shaper = shaper or PulseShaper()

        # Sample-clocked 802.11 timing.
        spu = config.slot_samples / TIMING_80211G.slot_us
        self.sifs = max(1, round(TIMING_80211G.sifs_us * spu))
        self.ack_air = max(1, round(TIMING_80211G.ack_us * spu))

        # Every packet in a session is the same length: probe it once.
        probe = Frame.make(np.zeros(config.payload_bits, dtype=np.uint8),
                           src=1, modulation=config.modulation,
                           preamble=self.preamble)
        self.packet_samples = self.shaper.shape(probe.symbols).size
        self.expected_symbols = probe.n_symbols

        seg_cfg = SegmenterConfig(noise_power=config.noise_power)
        # Worst-case ACK lag: the colliding partner may finish up to a
        # contention window later, the segmenter closes a hang window
        # after silence, and the burst is only processed at the next
        # chunk boundary.
        jitter = config.backoff.window(0) * config.slot_samples
        self.ack_timeout = (jitter + seg_cfg.hang_window
                            + config.chunk_samples + self.sifs
                            + self.ack_air + 4 * config.slot_samples)

        self.air = ContinuousAir(
            AirConfig(noise_power=config.noise_power,
                      chunk_samples=config.chunk_samples,
                      impairments=config.capture_impairments), self.rng)
        self.segmenter = BurstSegmenter(seg_cfg)
        # k-way reception: the AP decomposes collisions into as many
        # packets as the topology's largest mutually-hidden group, and
        # buffers enough collisions to assemble a full k-way set.
        k = config.collision_packets()
        self.ap = build_ap(design, ReceiverConfig(
            preamble=self.preamble, shaper=self.shaper,
            noise_power=config.noise_power,
            expected_symbols=self.expected_symbols,
            buffer_max_age=config.buffer_max_age,
            buffer_capacity=max(4, 2 * (k - 1)),
            max_collision_packets=k))

        # Association (§4.2.1): the AP holds a coarse frequency estimate
        # for every client, as obtained at association time.
        for client in clients:
            self.ap.clients.update(
                client.src,
                client.freq_offset
                + float(self.rng.normal(0, config.coarse_freq_error)))

        self.clients = [_ClientState(c, self, i)
                        for i, c in enumerate(clients)]
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
        self._ack_queue: list[tuple[int, int, int]] = []  # (time, src, seq)
        self.counters: dict[str, float] = {
            "transmissions": 0, "bursts": 0, "acks": 0, "acks_dropped": 0,
            "acks_infeasible": 0, "duplicate_decodes": 0,
            "ack_timeouts": 0, "packets_dropped": 0, "packets_lost": 0,
            "unresolved_at_cap": 0, "packets_unoffered_at_cap": 0,
        }

    # ------------------------------------------------------------------
    def _process_burst(self, burst, now: int) -> None:
        self.counters["bursts"] += 1
        results = [r for r in self.ap.receive(burst.samples)
                   if r.header is not None
                   and r.header.src in self._by_src]
        if not results:
            return
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

        ackable = self._plan_acks(results)
        base = max(now, burst.end + self.sifs)
        for rank, key in enumerate(ackable):
            # Successive ACKs are serialized on the air (Fig 4-5): SIFS +
            # ACK per earlier ACK of the same burst.
            at = base + rank * (self.sifs + self.ack_air)
            heapq.heappush(self._ack_queue, (at, key[0], key[1]))
            self.counters["acks"] += 1

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
    def _max_samples(self) -> int:
        """The runaway cap: explicit, or derived from worst-case MAC
        arithmetic (every packet retried to the limit, each attempt
        paying full airtime, timeout and contention)."""
        cfg = self.config
        if cfg.max_samples is not None:
            return cfg.max_samples
        per_attempt = (self.packet_samples + self.ack_timeout
                       + cfg.backoff.window(0) * cfg.slot_samples)
        total_attempts = (len(self.clients) * cfg.n_packets
                          * cfg.max_attempts)
        return 2 * total_attempts * per_attempt + 8 * cfg.chunk_samples

    def run(self) -> SessionReport:
        return EventEngine(self).run(time.perf_counter())

    def _finalize(self, now: int, timed_out: bool,
                  started: float) -> SessionReport:
        """End-of-session accounting.

        Order matters: flush the segmenter first (a still-open burst may
        decode and plan ACKs), then deliver-or-drop everything queued,
        then let in-flight clients act on late ACKs — and only then
        charge whatever is still unresolved to the cap.
        """
        for burst in self.segmenter.flush():
            self._process_burst(burst, now)
        # Late ACKs (including ones the flush just planned) are delivered
        # out of band; entries for already-resolved keys are explicitly
        # dropped rather than left queued.
        while self._ack_queue:
            _, src, seq = heapq.heappop(self._ack_queue)
            if (src, seq) in self.truth:
                self.acked.add((src, seq))
            else:
                self.counters["acks_dropped"] += 1
        for client in self.clients:
            if client.state in (RadioState.CONTEND, RadioState.TX,
                                RadioState.AWAIT_ACK) \
                    and client.key in self.acked:
                client._resolve(now)
        if timed_out:
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
                    client._resolve(now)
                    pending -= 1
                self.counters["packets_unoffered_at_cap"] += max(pending, 0)
                client.packets_done = self.config.n_packets
                client.state = RadioState.DONE

        stats = self.ap.stats
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
            receiver_stats=stats,
            counters=counters,
            timed_out=timed_out,
            elapsed_s=time.perf_counter() - started,
        )
