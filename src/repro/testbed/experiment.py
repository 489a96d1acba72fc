"""Signal-level experiments for the three compared receiver designs (§5.1e).

Each experiment replays a MAC-level plan through the full PHY + receiver
stack, mirroring the paper's §5.2 methodology:

- **Collision-Free Scheduler** (oracle TDMA): every packet is transmitted
  alone and decoded by the standard receiver.
- **Current 802.11**: hidden senders collide; the standard receiver is
  applied to each packet in the collision (capture effect emerges
  naturally when one sender is much stronger); failed packets retransmit —
  and collide again.
- **ZigZag**: the first collision is tried with capture-effect SIC; the
  retransmission produces a second collision with fresh backoff jitter and
  the pair is ZigZag-decoded. Faulty SIC copies of the weak packet are
  MRC-combined across rounds (Fig 4-1d).

Throughput is delivered packets per packet-slot of medium airtime; delivery
uses the §5.1(f) BER < 1e-3 rule.

These experiments are single-trial building blocks. The supported entry
point for running them at scale — parallel trial fan-out, deterministic
per-trial seeding, confidence intervals, TOML scenario files — is the
:mod:`repro.runner` subsystem (``python -m repro run scenario.toml``);
see ``docs/scenarios.md``. The drivers here are what the runner's
``pair``/``capture``/``testbed_pair`` scenarios wrap.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError, ReproError
from repro.mac.backoff import BackoffPicker, FixedWindowBackoff
from repro.mac.timing import SLOT_SAMPLES
from repro.phy.channel import (
    FREQ_SPREAD,
    PHASE_NOISE_STD,
    TX_EVM,
    ChannelParams,
)
from repro.phy.estimation import COARSE_FREQ_ERROR
from repro.phy.impairments import ImpairmentPipeline
from repro.phy.frame import Frame, extract_bits
from repro.phy.medium import Capture, Transmission, synthesize
from repro.phy.noise import NOISE_POWER
from repro.phy.preamble import Preamble, default_preamble
from repro.phy.pulse import PulseShaper
from repro.phy.sync import Synchronizer
from repro.receiver.decoder import StandardDecoder
from repro.receiver.frontend import StreamConfig
from repro.receiver.mrc import mrc_combine
from repro.testbed.metrics import BER_DELIVERY_THRESHOLD, FlowStats
from repro.utils.bits import bit_error_rate, random_bits
from repro.zigzag.decoder import ZigZagMultiDecoder
from repro.zigzag.engine import PacketSpec, PlacementParams
from repro.zigzag.sic import SicDecoder

__all__ = [
    "MAX_ROUNDS",
    "Design",
    "PairExperimentConfig",
    "PairExperiment",
    "run_capture_sweep_point",
]


# Capture-effect SIC is tried only when the strongest packet's fitted
# gain is at least this multiple of the weakest one's.
SIC_GAIN_RATIO = 2.0
# Collision rounds (transmissions) per packet pair before both senders
# give up on it.
MAX_ROUNDS = 4


class Design(enum.Enum):
    """The three compared receiver designs (§5.1e)."""

    ZIGZAG = "zigzag"
    CURRENT_80211 = "802.11"
    SCHEDULER = "collision-free"


@dataclass(frozen=True)
class PairExperimentConfig:
    """Parameters of a sender-pair experiment."""

    payload_bits: int = 320
    n_packets: int = 12
    backoff: BackoffPicker = field(
        default_factory=lambda: FixedWindowBackoff(16))
    preamble_length: int = 32
    # Optional impairment pipelines beyond the quasi-static model: the
    # sender pipeline rides on every transmission's channel; the capture
    # pipeline (AP front end / interferers) distorts each summed buffer.
    sender_impairments: ImpairmentPipeline | None = None
    capture_impairments: ImpairmentPipeline | None = None

    def __post_init__(self) -> None:
        if self.payload_bits < 64:
            raise ConfigurationError("payload too short for a frame")
        if self.n_packets < 1:
            raise ConfigurationError("counts must be positive")


@dataclass
class _Sender:
    """Static per-sender radio state across an experiment."""

    name: str
    snr_db: float
    freq_offset: float
    src: int

    def params(self, rng: np.random.Generator,
               cfg: PairExperimentConfig) -> ChannelParams:
        """Draw this round's channel realization for the sender."""
        amplitude = np.sqrt(10.0 ** (self.snr_db / 10.0) * NOISE_POWER)
        return ChannelParams(
            gain=amplitude * np.exp(1j * rng.uniform(0, 2 * np.pi)),
            freq_offset=self.freq_offset,
            sampling_offset=float(rng.uniform(0, 1)),
            phase_noise_std=PHASE_NOISE_STD,
            tx_evm=TX_EVM,
            impairments=cfg.sender_impairments,
        )


class PairExperiment:
    """Two saturated senders to one AP, with a given sensing probability."""

    def __init__(self, snr_a_db: float, snr_b_db: float,
                 sense_probability: float,
                 config: PairExperimentConfig | None = None,
                 rng: np.random.Generator | None = None,
                 preamble: Preamble | None = None,
                 shaper: PulseShaper | None = None) -> None:
        if not 0.0 <= sense_probability <= 1.0:
            raise ConfigurationError("sense probability in [0,1] required")
        self.cfg = config or PairExperimentConfig()
        self.rng = rng or np.random.default_rng(0)
        self.sense_probability = sense_probability
        cfg = self.cfg
        # Injectable so the Monte-Carlo runner can reuse cached reference
        # signals across trials; an injected preamble must match
        # cfg.preamble_length.
        if preamble is not None and len(preamble) != cfg.preamble_length:
            raise ConfigurationError(
                "injected preamble length differs from config")
        self.preamble = preamble or default_preamble(cfg.preamble_length)
        self.shaper = shaper or PulseShaper()
        self.sync = Synchronizer(self.preamble, self.shaper, threshold=0.3)
        self.standard = StandardDecoder(self.preamble, self.shaper)
        self.stream_config = StreamConfig(
            preamble=self.preamble, shaper=self.shaper)
        self.pair_decoder = ZigZagMultiDecoder(self.stream_config)
        self.sic = SicDecoder(self.stream_config)
        self.senders = {
            "A": _Sender("A", snr_a_db,
                         float(self.rng.uniform(-FREQ_SPREAD, FREQ_SPREAD)),
                         1),
            "B": _Sender("B", snr_b_db,
                         float(self.rng.uniform(-FREQ_SPREAD, FREQ_SPREAD)),
                         2),
        }

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _frame(self, sender: _Sender, seq: int) -> Frame:
        payload = random_bits(self.cfg.payload_bits, self.rng)
        return Frame.make(payload, src=sender.src, seq=seq % 4096,
                          preamble=self.preamble)

    def _jitter_offsets(self, attempt: int) -> tuple[int, int]:
        cfg = self.cfg
        slot_a = cfg.backoff.pick(attempt, self.rng)
        slot_b = cfg.backoff.pick(attempt, self.rng)
        base = min(slot_a, slot_b)
        return ((slot_a - base) * SLOT_SAMPLES,
                (slot_b - base) * SLOT_SAMPLES)

    def _collide(self, frames: dict[str, Frame],
                 offsets: dict[str, int]) -> Capture:
        txs = [
            Transmission.from_symbols(
                frames[name].symbols, self.shaper,
                self.senders[name].params(self.rng, self.cfg),
                offsets[name], name)
            for name in frames
        ]
        return synthesize(txs, NOISE_POWER, self.rng,
                          leading=8, tail=30,
                          impairments=self.cfg.capture_impairments)

    def _clean_transmission_ber(self, frame: Frame,
                                sender: _Sender) -> float:
        capture = self._collide({sender.name: frame}, {sender.name: 0})
        coarse = sender.freq_offset + self.rng.normal(
            0, COARSE_FREQ_ERROR)
        decoder = StandardDecoder(self.preamble, self.shaper,
                                  coarse_freq=coarse)
        result = decoder.decode(capture.samples)
        return result.ber_against(frame.body_bits)

    def _acquire_placements(self, capture: Capture,
                            collision_index: int) -> list[PlacementParams]:
        placements = []
        for t in capture.transmissions:
            sender = self.senders[t.label]
            coarse = sender.freq_offset + self.rng.normal(
                0, COARSE_FREQ_ERROR)
            est = self.sync.acquire(
                capture.samples, t.symbol0, coarse_freq=coarse)
            placements.append(PlacementParams(
                t.label, collision_index,
                t.symbol0 + est.sampling_offset, est))
        return placements

    # ------------------------------------------------------------------
    # Per-design packet handling
    # ------------------------------------------------------------------
    def _standard_on_collision(self, capture: Capture,
                               frames: dict[str, Frame]) -> dict[str, float]:
        """Current-802.11 receiver on a collision: per-packet BER."""
        bers = {}
        for t in capture.transmissions:
            sender = self.senders[t.label]
            coarse = sender.freq_offset + self.rng.normal(
                0, COARSE_FREQ_ERROR)
            decoder = StandardDecoder(self.preamble, self.shaper,
                                      coarse_freq=coarse)
            try:
                result = decoder.decode(capture.samples,
                                        start_position=t.symbol0)
            except ReproError:
                bers[t.label] = 1.0
                continue
            bers[t.label] = result.ber_against(frames[t.label].body_bits)
        return bers

    def _try_sic(self, capture: Capture, frames: dict[str, Frame],
                 soft_history: dict[str, list]) -> dict[str, float]:
        """Capture-effect SIC on one collision, with cross-round MRC for
        the weak packet (Fig 4-1d). Returns per-packet BER."""
        placements = self._acquire_placements(capture, 0)
        gains = {p.packet: abs(p.estimate.gain) for p in placements}
        names = list(gains)
        ratio = max(gains.values()) / max(min(gains.values()), 1e-12)
        if ratio < SIC_GAIN_RATIO:
            return {name: 1.0 for name in names}
        n_symbols = frames[names[0]].n_symbols
        specs = {p.packet: PacketSpec(p.packet, n_symbols)
                 for p in placements}
        results = self.sic.decode(capture.samples, specs, placements)
        bers = {}
        for name, result in results.items():
            ber = result.ber_against(frames[name].body_bits)
            if (ber >= BER_DELIVERY_THRESHOLD
                    and result.soft_symbols.size == n_symbols):
                soft_history.setdefault(name, []).append(
                    result.soft_symbols)
                if len(soft_history[name]) >= 2:
                    combined = mrc_combine(soft_history[name])
                    bits, _, _ = extract_bits(
                        combined, specs[name].body_constellation,
                        len(self.preamble))
                    ber = min(ber, bit_error_rate(
                        frames[name].body_bits, bits))
            bers[name] = ber
        return bers

    def _zigzag_pair(self, captures: list[Capture],
                     frames: dict[str, Frame]) -> dict[str, float]:
        placements = []
        for ci, capture in enumerate(captures):
            placements.extend(self._acquire_placements(capture, ci))
        specs = {name: PacketSpec(name, frames[name].n_symbols)
                 for name in frames}
        outcome = self.pair_decoder.decode(
            [c.samples for c in captures], specs, placements)
        return {name: outcome.results[name].ber_against(
            frames[name].body_bits) for name in frames}

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, design: Design) -> tuple[dict[str, FlowStats], float]:
        """Run the experiment; returns (per-flow stats, total airtime)."""
        flows = {"A": FlowStats(), "B": FlowStats()}
        total_airtime = 0.0
        for index in range(self.cfg.n_packets):
            frames = {name: self._frame(sender, index)
                      for name, sender in self.senders.items()}
            senses = self.rng.uniform() < self.sense_probability
            if design is Design.SCHEDULER or senses:
                for name, frame in frames.items():
                    ber = self._clean_transmission_ber(
                        frame, self.senders[name])
                    flows[name].record(ber, airtime=1.0)
                    total_airtime += 1.0
                continue
            if design is Design.CURRENT_80211:
                airtime, bers, bonus = self._run_80211_rounds(frames)
            else:
                airtime, bers, bonus = self._run_zigzag_rounds(frames)
            total_airtime += airtime
            for name, ber in bers.items():
                flows[name].record(ber, airtime=airtime / 2.0)
                # A sender whose packet already got through keeps the
                # pipeline moving while the other retries (capture regime,
                # Fig 4-1d): those fresh packets delivered during the
                # remaining rounds count too.
                for _ in range(bonus.get(name, 0)):
                    flows[name].record(0.0, airtime=0.0)
        return flows, total_airtime

    def _run_80211_rounds(self, frames
                          ) -> tuple[float, dict[str, float], dict[str, int]]:
        """Current-802.11 retransmission rounds for one packet pair."""
        best = {name: 1.0 for name in frames}
        bonus = {name: 0 for name in frames}
        airtime = 0.0
        for attempt in range(MAX_ROUNDS):
            pending = {n: f for n, f in frames.items()
                       if best[n] >= BER_DELIVERY_THRESHOLD}
            if not pending:
                break
            # Undelivered packets retransmit; a delivered sender moves on
            # to its next packet — hidden senders collide either way.
            off_a, off_b = self._jitter_offsets(attempt)
            offsets = {"A": off_a, "B": off_b}
            capture = self._collide(
                frames, {n: offsets[n] for n in frames})
            airtime += 1.0
            bers = self._standard_on_collision(capture, frames)
            for name, ber in bers.items():
                if best[name] < BER_DELIVERY_THRESHOLD:
                    if ber < BER_DELIVERY_THRESHOLD:
                        bonus[name] += 1
                else:
                    best[name] = min(best[name], ber)
        return airtime, best, bonus

    def _run_zigzag_rounds(self, frames
                           ) -> tuple[float, dict[str, float], dict[str, int]]:
        """ZigZag rounds: capture-SIC each collision, pair with the
        previous collision otherwise (§5.2 methodology)."""
        best = {name: 1.0 for name in frames}
        bonus = {name: 0 for name in frames}
        airtime = 0.0
        soft_history: dict[str, list] = {}
        previous: Capture | None = None
        for attempt in range(MAX_ROUNDS):
            if all(b < BER_DELIVERY_THRESHOLD for b in best.values()):
                break
            off_a, off_b = self._jitter_offsets(attempt)
            capture = self._collide(frames, {"A": off_a, "B": off_b})
            airtime += 1.0
            # First, can this collision alone be resolved (capture + SIC)?
            sic_bers = self._try_sic(capture, frames, soft_history)
            for name, ber in sic_bers.items():
                if best[name] < BER_DELIVERY_THRESHOLD:
                    if ber < BER_DELIVERY_THRESHOLD:
                        bonus[name] += 1  # fresh packet rides the capture
                else:
                    best[name] = min(best[name], ber)
            if all(b < BER_DELIVERY_THRESHOLD for b in best.values()):
                break
            # Otherwise pair it with the previous collision and ZigZag.
            if previous is not None:
                try:
                    pair_bers = self._zigzag_pair([previous, capture],
                                                  frames)
                except ReproError:
                    pair_bers = {}
                for name, ber in pair_bers.items():
                    best[name] = min(best[name], ber)
            previous = capture
        return airtime, best, bonus


# ----------------------------------------------------------------------
# Scenario drivers used by the figure benchmarks
# ----------------------------------------------------------------------
def run_capture_sweep_point(sinr_db: float, design: Design, *,
                            snr_b_db: float = 9.0,
                            config: PairExperimentConfig | None = None,
                            seed: int = 0,
                            preamble: Preamble | None = None,
                            shaper: PulseShaper | None = None
                            ) -> dict[str, float]:
    """One Fig 5-4 point: hidden pair with SNR_A = SNR_B + SINR.

    Returns normalized per-sender throughputs plus their total.
    *preamble*/*shaper* allow callers (the runner) to inject cached
    reference objects instead of rebuilding them per point.
    """
    rng = np.random.default_rng(seed)
    experiment = PairExperiment(snr_b_db + sinr_db, snr_b_db,
                                sense_probability=0.0,
                                config=config, rng=rng,
                                preamble=preamble, shaper=shaper)
    flows, airtime = experiment.run(design)
    if airtime <= 0:
        return {"A": 0.0, "B": 0.0, "total": 0.0}
    tput = {name: stats.delivered / airtime
            for name, stats in flows.items()}
    tput["total"] = sum(v for k, v in tput.items())
    return tput

