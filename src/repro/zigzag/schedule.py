"""Chunk decode-order scheduling (§4.2.3, generalized per §4.5).

The greedy algorithm of §4.5, restated for our prefix-sequential decoders:

  1. decode every overhanging (interference-free) chunk in any collision;
  2. subtract known chunks wherever they appear;
  3. decode newly interference-free chunks; repeat.

Because each packet's stream decoder consumes symbols left-to-right, a
packet's decoded set is always a prefix. A symbol of packet p is decodable
in collision c once every *other* packet's undecoded region in c starts
later than that symbol (plus a small pulse-overlap margin). The scheduler
below emits maximal chunks under that rule until all packets complete or no
progress is possible — the latter is exactly the paper's "failure" event
(Fig 4-7), e.g. when two collisions have identical offsets
(Assertion 4.5.1's condition is violated).

The same function is used symbolically (offsets only, Fig 4-7's MAC-level
Monte Carlo) and physically (driving :class:`~repro.zigzag.engine.ZigZagEngine`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError, ScheduleError

__all__ = [
    "Placement",
    "DecodeStep",
    "greedy_schedule",
    "schedule_is_complete",
]


@dataclass(frozen=True)
class Placement:
    """One packet's appearance in one collision.

    ``start`` is the sample position of symbol 0's pulse centre within that
    collision's capture buffer (fractional); ``sps`` converts symbol
    indices to sample positions.
    """

    packet: str
    collision: int
    start: float
    n_symbols: int
    sps: int = 2

    def __post_init__(self) -> None:
        if self.n_symbols <= 0:
            raise ConfigurationError("placement needs at least one symbol")
        if self.sps < 1:
            raise ConfigurationError("sps must be >= 1")

    def symbol_position(self, index: int) -> float:
        return self.start + self.sps * index


@dataclass(frozen=True)
class DecodeStep:
    """Decode symbols [i0, i1) of *packet* from *collision*."""

    packet: str
    collision: int
    i0: int
    i1: int

    def __post_init__(self) -> None:
        if not 0 <= self.i0 < self.i1:
            raise ConfigurationError("invalid step range")

    @property
    def n_symbols(self) -> int:
        return self.i1 - self.i0


def greedy_schedule(placements: list[Placement], *,
                    margin_symbols: float = 0.0,
                    max_rounds: int | None = None) -> list[DecodeStep]:
    """Find a complete chunk decode order, or raise :class:`ScheduleError`.

    Parameters
    ----------
    placements:
        Every (packet, collision) pair. A packet may appear in several
        collisions and a collision holds one or more packets.
    margin_symbols:
        Extra spacing (in symbols) required between a decodable symbol and
        the nearest undecoded interferer — accounts for pulse-shaping
        overlap when the schedule drives a physical engine. Use 0 for
        symbolic (MAC-level) evaluation.
    """
    if not placements:
        raise ConfigurationError("no placements to schedule")
    lengths: dict[str, int] = {}
    for pl in placements:
        prior = lengths.setdefault(pl.packet, pl.n_symbols)
        if prior != pl.n_symbols:
            raise ConfigurationError(
                f"packet {pl.packet!r} has inconsistent lengths")

    by_collision: dict[int, list[Placement]] = {}
    for pl in placements:
        by_collision.setdefault(pl.collision, []).append(pl)

    placements_by_packet: dict[str, list[Placement]] = {}
    for pl in placements:
        placements_by_packet.setdefault(pl.packet, []).append(pl)

    done = {packet: 0 for packet in lengths}
    last_collision: dict[str, int] = {}
    steps: list[DecodeStep] = []
    rounds = 0
    limit_rounds = max_rounds if max_rounds is not None \
        else 4 * sum(lengths.values())

    def decode_limit(pl: Placement) -> int:
        """How far packet pl.packet could decode in pl.collision now."""
        limit = lengths[pl.packet]
        for other in by_collision[pl.collision]:
            if other.packet == pl.packet:
                continue
            if done[other.packet] >= lengths[other.packet]:
                continue
            blocker = other.symbol_position(done[other.packet])
            # Symbols strictly earlier than the blocker (minus margin) are
            # decodable; a symbol exactly at the blocker's position is not.
            allowed = (blocker - margin_symbols * pl.sps
                       - pl.start) / pl.sps
            limit = min(limit, int(math.ceil(allowed)))
        return limit

    while any(done[p] < lengths[p] for p in lengths):
        rounds += 1
        if rounds > limit_rounds:
            raise ScheduleError("scheduler exceeded round limit")
        progress = False
        for packet in sorted(lengths):
            i0 = done[packet]
            if i0 >= lengths[packet]:
                continue
            # Pick the collision offering the longest next chunk; prefer
            # the one this packet last decoded from (stream continuity —
            # mid-stream switches bootstrap from the coarser subtraction-
            # correction state).
            best: Placement | None = None
            best_limit = i0
            for pl in placements_by_packet[packet]:
                limit = decode_limit(pl)
                is_better = limit > best_limit or (
                    limit == best_limit and best is not None
                    and last_collision.get(packet) == pl.collision
                    and last_collision.get(packet) != best.collision)
                if is_better:
                    best, best_limit = pl, limit
            if best is not None and best_limit > i0:
                steps.append(DecodeStep(packet, best.collision, i0,
                                        best_limit))
                done[packet] = best_limit
                last_collision[packet] = best.collision
                progress = True
        if not progress:
            missing = {p: (done[p], lengths[p])
                       for p in lengths if done[p] < lengths[p]}
            raise ScheduleError(
                f"no decodable chunk remains; stuck packets: {missing}")
    return steps


def schedule_is_complete(placements: list[Placement],
                         steps: list[DecodeStep]) -> bool:
    """Verify every packet is fully covered by contiguous, in-order steps."""
    lengths = {pl.packet: pl.n_symbols for pl in placements}
    cursor = {p: 0 for p in lengths}
    for step in steps:
        if step.i0 != cursor.get(step.packet):
            return False
        cursor[step.packet] = step.i1
    return all(cursor[p] == lengths[p] for p in lengths)
