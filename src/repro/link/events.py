"""The vocabulary of the session event loop: radio states, event kinds,
same-boundary priorities, and the event heap.

:class:`~repro.link.session.LinkSession` runs the loop itself; this
module holds only what it schedules with. Every event carries an
absolute sample index, and co-timed events are ordered by layer (air
chunk, then ACK delivery, then client decisions in list order).
"""

from __future__ import annotations

import heapq
from enum import IntEnum

__all__ = ["RadioState", "EventQueue",
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
