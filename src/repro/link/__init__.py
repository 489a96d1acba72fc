"""Streaming closed-loop AP subsystem: continuous air -> bursts -> ACKs.

The online system of §4.2.2/§4.4: a bounded-memory sample stream
(:mod:`~repro.link.air`), a streaming burst segmenter
(:mod:`~repro.link.segmenter`), design-agnostic APs
(:mod:`~repro.link.aps`) and the N-client closed-loop session, which
runs its own event loop (:mod:`~repro.link.session`). The runner's
``ap_stream`` and ``three_senders_stream`` scenarios are built on
:class:`LinkSession`.
"""

from repro.link.air import ContinuousAir
from repro.link.aps import StandardAp, build_ap
from repro.link.events import EventQueue, RadioState
from repro.link.multicell import (
    MultiCellConfig,
    MultiCellReport,
    MultiCellSession,
)
from repro.link.segmenter import Burst, BurstSegmenter
from repro.link.topology import Topology
from repro.link.session import (
    LinkSession,
    SessionConfig,
    SessionReport,
    StreamClient,
)

__all__ = [
    "Burst",
    "BurstSegmenter",
    "ContinuousAir",
    "EventQueue",
    "LinkSession",
    "MultiCellConfig",
    "MultiCellReport",
    "MultiCellSession",
    "RadioState",
    "SessionConfig",
    "SessionReport",
    "StandardAp",
    "StreamClient",
    "Topology",
    "build_ap",
]
