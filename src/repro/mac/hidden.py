"""Hidden-terminal scenario: the canonical Fig 1-1 setup.

It draws the random inter-collision offsets that 802.11 jitter produces —
"802.11 senders jitter every transmission by a short random interval, and
hence collisions start with a random stretch of interference free bits".
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.mac.backoff import BackoffPicker, FixedWindowBackoff
from repro.mac.timing import SLOT_SAMPLES

__all__ = ["HiddenScenario"]


@dataclass
class HiddenScenario:
    """The Fig 1-1 setup: senders that cannot hear each other, one AP.

    ``n_senders`` mutually-hidden senders all transmit to the AP; every
    round they draw independent jitters, producing one multi-packet
    collision per round. ``collision_offsets`` returns per-round start
    offsets (in samples) for each sender — the input both to the symbolic
    Fig 4-7 analysis and to signal-level synthesis.
    """

    n_senders: int = 2
    picker: BackoffPicker = field(default_factory=lambda: FixedWindowBackoff(16))

    def __post_init__(self) -> None:
        if self.n_senders < 2:
            raise ConfigurationError("a hidden scenario needs >= 2 senders")

    def collision_offsets(self, rng: np.random.Generator,
                          n_rounds: int) -> list[list[int]]:
        """Per-round absolute start offsets (samples), smallest first at 0.

        Round r uses attempt number r (so exponential backoff widens the
        window as retransmissions accumulate, as in Fig 4-7b).
        """
        if n_rounds < 1:
            raise ConfigurationError("n_rounds must be >= 1")
        rounds = []
        for r in range(n_rounds):
            slots = [self.picker.pick(r, rng) for _ in range(self.n_senders)]
            base = min(slots)
            rounds.append([(s - base) * SLOT_SAMPLES for s in slots])
        return rounds
