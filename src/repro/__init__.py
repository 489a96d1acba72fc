"""repro — a full reproduction of *ZigZag Decoding: Combating Hidden
Terminals in Wireless Networks* (Gollakota & Katabi, SIGCOMM 2008).

Quickstart::

    import numpy as np
    from repro import quick_hidden_terminal_demo

    results = quick_hidden_terminal_demo(seed=1)
    print(results)  # both colliding packets decoded from two collisions

Package layout:

- :mod:`repro.phy` — the 802.11-like physical layer (modulation, framing,
  channel impairments, pulse shaping, sync, estimation, tracking).
- :mod:`repro.receiver` — the standard black-box decoder and helpers.
- :mod:`repro.zigzag` — the paper's contribution: collision detection and
  matching, the greedy chunk scheduler, the re-encode/subtract engine,
  forward+backward decoding with MRC, and capture-effect SIC.
- :mod:`repro.mac` — 802.11 DCF, backoff, ACK timing (Lemma 4.4.1).
- :mod:`repro.testbed` — the 14-node evaluation substrate and the three
  compared receiver designs.
- :mod:`repro.analysis` — capacity region and error-decay theory.
- :mod:`repro.core` — the assembled AP receiver (§5.1d flow control).
- :mod:`repro.link` — the streaming closed-loop AP subsystem: continuous
  air, burst segmentation, N-client sessions with live ACK feedback
  (§4.2.2/§4.4 running as an online system).
- :mod:`repro.runner` — the parallel Monte-Carlo runner: declarative
  :class:`~repro.runner.spec.ScenarioSpec`, process fan-out with
  deterministic seeding, and the ``python -m repro`` CLI. This is the
  supported entry point for running experiments at scale.
"""

from repro.core import ClientTable, ReceiverConfig, ZigZagReceiver
from repro.errors import (
    CollisionDetectError,
    ConfigurationError,
    DecodeError,
    FrameError,
    MatchError,
    ReproError,
    ScheduleError,
    SyncError,
    TrackingError,
)
from repro.runner import (
    MonteCarloRunner,
    RunResult,
    ScenarioSpec,
    SenderSpec,
    SweepResult,
)

__version__ = "1.1.0"

__all__ = [
    "ZigZagReceiver",
    "ReceiverConfig",
    "ClientTable",
    "MonteCarloRunner",
    "ScenarioSpec",
    "SenderSpec",
    "RunResult",
    "SweepResult",
    "ReproError",
    "ConfigurationError",
    "FrameError",
    "SyncError",
    "DecodeError",
    "CollisionDetectError",
    "MatchError",
    "ScheduleError",
    "TrackingError",
    "quick_hidden_terminal_demo",
    "__version__",
]


def quick_hidden_terminal_demo(seed: int = 1, snr_db: float = 12.0,
                               payload_bits: int = 256) -> dict:
    """Decode one canonical Fig 1-2 hidden-terminal collision pair.

    The pair is the ``hidden_pair_decode`` scenario's
    (:func:`~repro.runner.builders.hidden_pair_scenario`). Returns a dict
    keyed by packet (``A``, ``B``) with success flags and bit error rates
    — a one-call sanity check that the whole stack works.
    """
    from repro.phy.preamble import default_preamble
    from repro.phy.pulse import PulseShaper
    from repro.receiver.frontend import StreamConfig
    from repro.runner.builders import hidden_pair_scenario
    from repro.utils.rng import make_rng
    from repro.zigzag.decoder import ZigZagMultiDecoder

    preamble = default_preamble(32)
    shaper = PulseShaper()
    captures, frames, specs, placements = hidden_pair_scenario(
        make_rng(seed), preamble, shaper, snr_db=snr_db,
        payload_bits=payload_bits)
    config = StreamConfig(preamble=preamble, shaper=shaper)
    outcome = ZigZagMultiDecoder(config).decode(
        [c.samples for c in captures], specs, placements)
    return {
        name: {
            "decoded": outcome.results[name].success,
            "ber": outcome.results[name].ber_against(
                frames[name].body_bits),
        }
        for name in frames
    }
