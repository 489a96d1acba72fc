"""ZigZag decoding — the paper's core contribution.

Submodules:

- :mod:`~repro.zigzag.schedule`: the greedy chunk-ordering algorithm
  (§4.2.3 for packet pairs, §4.5 for N colliding senders, Fig 4-7).
- :mod:`~repro.zigzag.reencode`: decoded symbols -> channel image for
  subtraction (§4.2.3b, §4.2.4).
- :mod:`~repro.zigzag.engine`: executes a schedule over real captures,
  maintaining residual buffers, per-(packet, collision) decoder streams,
  accumulated images, and the cross-collision amplitude/phase/frequency
  correction loop of §4.2.4(b).
- :mod:`~repro.zigzag.decoder`: the user-facing decoders — the general
  k-way :class:`~repro.zigzag.decoder.ZigZagMultiDecoder` (§4.5): a
  forward pass, plus backward pass and k-copy MRC (§4.3b) for packets
  that still fail CRC; a pair is its k = 2 case.
- :mod:`~repro.zigzag.detect` / :mod:`~repro.zigzag.match`: is-it-a-
  collision (§4.2.1) and did-we-get-matching-collisions (§4.2.2).
- :mod:`~repro.zigzag.sic`: capture-effect successive interference
  cancellation (Fig 4-1d/e).
"""

from repro.zigzag.schedule import (
    DecodeStep,
    Placement,
    greedy_schedule,
    schedule_is_complete,
)
from repro.zigzag.reencode import Reencoder
from repro.zigzag.engine import PacketSpec, PlacementParams, ZigZagEngine
from repro.zigzag.detect import CollisionDetector
from repro.zigzag.match import match_score
from repro.zigzag.decoder import (
    ZigZagMultiDecoder,
    ZigZagOutcome,
)
from repro.zigzag.sic import SicDecoder

__all__ = [
    "DecodeStep",
    "Placement",
    "greedy_schedule",
    "schedule_is_complete",
    "Reencoder",
    "PacketSpec",
    "PlacementParams",
    "ZigZagEngine",
    "CollisionDetector",
    "match_score",
    "ZigZagMultiDecoder",
    "ZigZagOutcome",
    "SicDecoder",
]
