"""Event-driven session core: symbolic MAC time, DSP only where signal is.

:meth:`~repro.link.session.LinkSession.run` runs a heap-ordered event
loop in the style of SimPy networking stacks instead of visiting every
slot boundary, so wall time scales with *busy* air rather than with
simulated air. Client arrivals, backoff expiries, TX starts/ends, ACK
deliveries and ACK timeouts are discrete events carrying absolute
sample indices, and the medium advances *lazily* — noise and burst
segmentation are synthesized only over chunks that overlap a scheduled
waveform (or an open burst), while idle gaps are skipped symbolically in
O(1) via :meth:`ContinuousAir.skip` / :meth:`BurstSegmenter.skip`.

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
"""

from __future__ import annotations

import heapq
from enum import IntEnum

__all__ = ["RadioState", "EventQueue", "EventEngine",
           "ARRIVAL", "TX_START", "TX_END", "ACK_TIMEOUT",
           "ACK_DELIVERY", "AIR_CHUNK",
           "PRIO_AIR", "PRIO_ACK", "PRIO_CLIENT"]


class RadioState(IntEnum):
    """Per-client MAC radio state (IDLE/CONTEND/TX/AWAIT_ACK machine)."""

    IDLE = 0        # no packet pending; waiting for the next arrival
    CONTEND = 1     # backoff counting down on idle slot boundaries
    TX = 2          # waveform on the air until ``tx_end``
    AWAIT_ACK = 3   # transmitted; ACK must land before ``ack_deadline``
    DONE = 4        # all of this client's packets resolved


# Event kinds.
ARRIVAL = "arrival"          # a client's next packet arrives
TX_START = "tx_start"        # backoff expired on an idle boundary
TX_END = "tx_end"            # waveform left the air
ACK_TIMEOUT = "ack_timeout"  # no ACK within the timeout window
ACK_DELIVERY = "ack"         # a planned ACK reaches its sender
AIR_CHUNK = "air_chunk"      # synthesize/segment one chunk of medium

# Same-boundary ordering: chunk emission, then ACK delivery, then client
# decisions in list order.
PRIO_AIR, PRIO_ACK, PRIO_CLIENT = range(3)


class EventQueue:
    """A heap of ``(time, priority, tiebreak, seq, kind, data)`` events.

    ``time`` is an absolute sample index; ``priority`` orders co-timed
    events across layers (air < ACK < client); ``tiebreak`` orders
    co-timed events inside a layer (client list index, or chunk end for
    air events — a slotted MAC's sequential-step order); ``seq`` makes
    the ordering total and FIFO-stable.
    """

    def __init__(self) -> None:
        self._heap: list[tuple] = []
        self._seq = 0
        self.pushed = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, time: int, priority: int, tiebreak: int,
             kind: str, data=None) -> None:
        heapq.heappush(self._heap,
                       (time, priority, tiebreak, self._seq, kind, data))
        self._seq += 1
        self.pushed += 1

    def pop(self) -> tuple:
        return heapq.heappop(self._heap)

    def peek_time(self) -> int | None:
        """Absolute time of the earliest queued event (None when empty)."""
        return self._heap[0][0] if self._heap else None


class EventEngine:
    """Drive one :class:`~repro.link.session.LinkSession` by events.

    The engine owns the event heap and the lazy-air bookkeeping; all
    domain state (client states, flows, counters, the AP, the air, the
    segmenter, ACK planning) lives on the session.
    """

    def __init__(self, session) -> None:
        self.s = session
        self.q = EventQueue()
        self.slot = session.config.slot_samples
        self.chunk = session.config.chunk_samples
        self.now = 0
        # Client list index -> (start, tx_end) of its in-flight waveform.
        self.active_tx: dict[int, tuple[int, int]] = {}
        # Chunk-end indices with a pending AIR_CHUNK event.
        self.pending_chunks: set[int] = set()
        self.done = sum(1 for c in session.clients
                        if c.state == RadioState.DONE)
        seg = session.segmenter.config
        # Noise context synthesized around each waveform: enough history
        # ahead of the edge for the open detector's reach-back, enough
        # tail for the hang window to confirm silence and close.
        self._lead = seg.open_window + seg.pad
        self._tail = 2 * seg.hang_window

    # ------------------------------------------------------------------
    def _boundary(self, t: int) -> int:
        """Smallest slot-grid boundary >= *t* (where a slotted MAC first
        observes a condition raised at raw time *t*)."""
        return -(-int(t) // self.slot) * self.slot

    # ------------------------------------------------------------------
    def run(self, started: float):
        self.start()
        self.step_until(None)
        return self.finish(started)

    def start(self) -> None:
        """Arm the engine: seed initial arrivals, derive the runaway cap.

        Splitting the old monolithic ``run`` into ``start`` /
        :meth:`step_until` / :meth:`finish` lets a multi-cell
        coordinator interleave several engines on one shared horizon;
        ``run`` composes the three for the single-cell case.
        """
        s = self.s
        self.max_samples = s._max_samples()
        self.timed_out = False
        self.finished = self.done >= len(s.clients)
        for c in s.clients:
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
        s = self.s
        while not self.finished:
            if self.done >= len(s.clients) or not len(self.q):
                self.finished = True
                break
            if t_stop is not None and self.q.peek_time() >= t_stop:
                return True
            time_, _prio, _tie, _seq, kind, data = self.q.pop()
            if time_ >= self.max_samples:
                self.timed_out = True
                self.now = self._boundary(self.max_samples)
                self.finished = True
                break
            self.now = max(self.now, time_)
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

    def finish(self, started: float):
        """Close the session out (flush, late ACKs, cap accounting)."""
        return self.s._finalize(self.now, self.timed_out, started)

    # ------------------------------------------------------------------
    # Medium: lazy synthesis over covered chunks only.
    def _schedule_chunk(self, chunk_end: int) -> None:
        if chunk_end in self.pending_chunks \
                or chunk_end <= self.s.air.cursor:
            return
        self.pending_chunks.add(chunk_end)
        self.q.push(max(self._boundary(chunk_end), self.now),
                    PRIO_AIR, chunk_end, AIR_CHUNK, chunk_end)

    def cover_air(self, start: int, end: int) -> None:
        """Schedule synthesis for every chunk a waveform (plus noise
        context) touches; everything between stays symbolic.

        Public because it is the injection contract of the multi-cell
        coordinator: after :meth:`ContinuousAir.inject` lands foreign
        energy on ``[start, end)``, the owning engine must synthesize
        the touched chunks instead of skipping them symbolically.
        """
        lo = max((start - self._lead) // self.chunk, 0)
        hi = (end + self._tail) // self.chunk
        for k in range(lo, hi + 1):
            self._schedule_chunk((k + 1) * self.chunk)

    def _on_chunk(self, chunk_end: int, now: int) -> None:
        s = self.s
        self.pending_chunks.discard(chunk_end)
        if chunk_end <= s.air.cursor:
            return
        gap = chunk_end - self.chunk - s.air.cursor
        if gap > 0:
            if s.segmenter.is_open:
                # An open burst must see a gapless stream; synthesize the
                # uncovered span instead of skipping it. (Continuation
                # scheduling makes this path unreachable in practice.)
                while s.air.cursor < chunk_end - self.chunk:
                    step = min(self.chunk,
                               chunk_end - self.chunk - s.air.cursor)
                    self._feed(s.air.emit(step), now)
            else:
                s.air.skip(gap)
                s.segmenter.skip(gap)
        self._feed(s.air.emit(self.chunk), now)
        if s.segmenter.is_open:
            # A burst outlived its scheduled coverage (e.g. back-to-back
            # collisions): keep the air flowing until it closes.
            self._schedule_chunk(chunk_end + self.chunk)

    def _feed(self, samples, now: int) -> None:
        s = self.s
        for burst in s.segmenter.push(samples):
            s._process_burst(burst, now)
        # _process_burst plans ACKs onto the session's time-ordered
        # queue; lift them onto the event heap (delivered at the first
        # boundary >= their air time).
        while s._ack_queue:
            at, src, seq = heapq.heappop(s._ack_queue)
            self.q.push(max(self._boundary(at), now), PRIO_ACK, 0,
                        ACK_DELIVERY, (src, seq))

    # ------------------------------------------------------------------
    # MAC events.
    def _on_ack(self, key: tuple[int, int], now: int) -> None:
        s = self.s
        if key not in s.truth:
            return              # stale ACK for a resolved key: dropped
        s.acked.add(key)
        client = s._by_src.get(key[0])
        if client is None or client.key != key:
            return
        if client.state in (RadioState.CONTEND, RadioState.AWAIT_ACK):
            self._resolve(client, now)
        # In TX the client acts on the ACK at its own TX_END boundary.

    def _on_arrival(self, data: tuple[int, int], now: int) -> None:
        idx, gen = data
        client = self.s.clients[idx]
        if client.gen != gen or client.state != RadioState.IDLE:
            return
        client._begin_packet(now)
        self._schedule_tx(client, now)

    def _on_tx_start(self, data: tuple[int, int], now: int) -> None:
        s = self.s
        idx, gen = data
        client = s.clients[idx]
        if client.gen != gen or client.state != RadioState.CONTEND:
            return
        client._transmit(now)
        self.active_tx[idx] = (now, client.tx_end)
        self.q.push(self._boundary(client.tx_end), PRIO_CLIENT, idx,
                    TX_END, (idx, client.gen))
        self.cover_air(now, client.tx_end)
        # Freeze the backoff of contenders that sense this transmission.
        # Snapshot rule: the new waveform is not sensed at its own start
        # boundary, so a pending same-boundary TX_START still fires (a
        # genuine same-slot collision) and decrements through *now* have
        # already happened.
        for other in s.clients:
            if other.index == idx \
                    or other.state != RadioState.CONTEND \
                    or not s._sense[other.index, idx] \
                    or other.pending_tx_time <= now:
                continue
            consumed = 0
            if now >= other.contend_anchor:
                consumed = (now - other.contend_anchor) // self.slot + 1
            other.backoff = max(other.backoff - consumed, 0)
            self._schedule_tx(other, now)

    def _on_tx_end(self, data: tuple[int, int], now: int) -> None:
        s = self.s
        idx, gen = data
        client = s.clients[idx]
        if client.gen != gen or client.state != RadioState.TX:
            return
        self.active_tx.pop(idx, None)
        if client.key in s.acked:       # ACK landed mid-transmission
            self._resolve(client, now)
            return
        client.state = RadioState.AWAIT_ACK
        client.ack_deadline = client.tx_end + s.ack_timeout
        self.q.push(self._boundary(client.ack_deadline), PRIO_CLIENT, idx,
                    ACK_TIMEOUT, (idx, client.gen))

    def _on_ack_timeout(self, data: tuple[int, int], now: int) -> None:
        s = self.s
        idx, gen = data
        client = s.clients[idx]
        if client.gen != gen or client.state != RadioState.AWAIT_ACK:
            return
        if client.key in s.acked:       # pragma: no cover - ACK events
            self._resolve(client, now)  # at this boundary resolve first
            return
        s.counters["ack_timeouts"] += 1
        client.attempt += 1
        if client.attempt >= s.config.max_attempts:
            s.counters["packets_dropped"] += 1
            self._resolve(client, now)
        else:
            client.backoff = s.config.backoff.pick(client.attempt, s.rng)
            client.state = RadioState.CONTEND
            self._schedule_tx(client, now)

    # ------------------------------------------------------------------
    def _busy_until(self, client) -> int:
        """Absolute end of the latest in-flight transmission this client
        senses (0 when its medium is idle)."""
        s = self.s
        ends = [end for idx, (_start, end) in self.active_tx.items()
                if s._sense[client.index, idx]]
        return max(ends, default=0)

    def _schedule_tx(self, client, now: int) -> None:
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

    def _resolve(self, client, now: int) -> None:
        """Close the client's current packet and schedule what follows."""
        client.gen += 1             # invalidate in-flight MAC events
        client._resolve(now)
        if client.state == RadioState.DONE:
            self.done += 1
            return
        self.q.push(max(self._boundary(client.next_arrival),
                        now + self.slot),
                    PRIO_CLIENT, client.index, ARRIVAL,
                    (client.index, client.gen))
