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

    Returns a dict with per-packet success flags and bit error rates —
    a one-call sanity check that the whole stack works.
    """
    import numpy as np

    from repro.phy.channel import PHASE_NOISE_STD, ChannelParams
    from repro.phy.constellation import BPSK
    from repro.phy.frame import Frame
    from repro.phy.medium import Transmission, synthesize
    from repro.phy.noise import NOISE_POWER
    from repro.phy.preamble import default_preamble
    from repro.phy.pulse import PulseShaper
    from repro.phy.sync import Synchronizer
    from repro.receiver.frontend import StreamConfig
    from repro.utils.bits import random_bits
    from repro.utils.rng import make_rng
    from repro.zigzag.decoder import ZigZagMultiDecoder
    from repro.zigzag.engine import PacketSpec, PlacementParams

    rng = make_rng(seed)
    preamble = default_preamble(32)
    shaper = PulseShaper()
    amplitude = np.sqrt(10.0 ** (snr_db / 10.0) * NOISE_POWER)
    frames = {
        "alice": Frame.make(random_bits(payload_bits, rng), src=1,
                            preamble=preamble),
        "bob": Frame.make(random_bits(payload_bits, rng), src=2,
                          preamble=preamble),
    }
    params = {
        name: ChannelParams(
            gain=amplitude * np.exp(1j * rng.uniform(0, 2 * np.pi)),
            freq_offset=float(rng.uniform(-2e-4, 2e-4)),
            sampling_offset=float(rng.uniform(0, 1)),
            phase_noise_std=PHASE_NOISE_STD)
        for name in frames
    }
    captures = []
    for bob_offset in (160, 60):
        captures.append(synthesize(
            [Transmission.from_symbols(frames["alice"].symbols, shaper,
                                       params["alice"], 0, "alice"),
             Transmission.from_symbols(frames["bob"].symbols, shaper,
                                       params["bob"], bob_offset, "bob")],
            NOISE_POWER, rng, leading=8, tail=40))
    sync = Synchronizer(preamble, shaper, threshold=0.3)
    placements = []
    for ci, capture in enumerate(captures):
        for t in capture.transmissions:
            est = sync.acquire(capture.samples, t.symbol0,
                               coarse_freq=params[t.label].freq_offset)
            placements.append(PlacementParams(
                t.label, ci, t.symbol0 + est.sampling_offset, est))
    specs = {name: PacketSpec(name, frames[name].n_symbols, BPSK)
             for name in frames}
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
