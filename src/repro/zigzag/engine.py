"""The ZigZag execution engine: runs a chunk schedule over real captures.

State per run:

- ``residual[c]``: capture c with every decoded chunk's image subtracted —
  the paper's progressively-cleaned collision signal.
- ``streams[(p, c)]``: the black-box stream decoder for packets that decode
  chunks out of collision c (phase-tracking state lives here).
- ``subtraction[(p, c)]``: for collisions where p is only *subtracted*, the
  §4.2.4(b) correction loop — a complex multiplier plus frequency term
  updated from the measured mismatch between each predicted chunk image and
  the still-uncleaned residual ("compare the phases in chunk 1' and chunk
  1''; update 6f = 6f + α δφ/δt").
- ``images[(p, c)]``: accumulated reconstruction of p in c. When p decodes
  its *own* next chunk from c, its previously-subtracted image is locally
  re-added so the stream sees the original waveform (only *other* packets
  must be absent).

Executing a :class:`~repro.zigzag.schedule.DecodeStep` therefore:
decode chunk -> re-encode -> measure/correct (cross-collision) -> subtract
everywhere p appears. Soft symbols, hard decisions and tracked phases are
accumulated per packet for the caller (bit extraction, MRC, CRC).

This engine is a building block, driven by
:class:`~repro.zigzag.decoder.ZigZagMultiDecoder` per collision set. To
run whole experiments over it — Monte-Carlo trials, process fan-out,
aggregated statistics — use the :mod:`repro.runner` subsystem
(``python -m repro run scenario.toml``), the supported entry point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.phy.constellation import BPSK, Constellation
from repro.phy.estimation import ChannelEstimate
from repro.phy.noise import NOISE_POWER
from repro.receiver.frontend import StreamConfig, SymbolStreamDecoder
from repro.zigzag.reencode import Reencoder, add_segment, subtract_segment
from repro.zigzag.schedule import DecodeStep

__all__ = ["PacketSpec", "PlacementParams", "SubtractionState",
           "ZigZagEngine"]

# Loop gains of the §4.2.4(b) correction: the fraction of each measured
# chunk-image phase/amplitude mismatch folded into the subtraction
# multiplier (α), and of its rate folded into the frequency term (β).
CORRECTION_ALPHA = 0.7
CORRECTION_BETA = 0.4


@dataclass(frozen=True)
class PacketSpec:
    """What the engine must know about one colliding packet."""

    key: str
    n_symbols: int
    body_constellation: Constellation = BPSK


@dataclass
class PlacementParams:
    """One packet's channel in one capture, as estimated at detection time."""

    packet: str
    collision: int
    start: float
    estimate: ChannelEstimate


@dataclass
class SubtractionState:
    """§4.2.4(b) correction loop for a subtract-only placement."""

    multiplier: complex = 1.0 + 0j
    freq: float = 0.0          # residual, radians per sample
    last_position: float | None = None

    def predict(self, position: float) -> complex:
        """Extrapolate the correction multiplier to *position* (samples)."""
        if self.last_position is None:
            return self.multiplier
        angle = self.freq * (position - self.last_position)
        return self.multiplier * complex(math.cos(angle), math.sin(angle))


@dataclass
class PacketAccumulator:
    """Per-packet outputs assembled as chunks decode."""

    soft: np.ndarray
    decisions: np.ndarray
    phases: np.ndarray
    source: np.ndarray  # collision index each symbol was decoded from

    @classmethod
    def empty(cls, n: int) -> "PacketAccumulator":
        """An all-zeros accumulator for an *n*-symbol packet."""
        return cls(
            soft=np.zeros(n, dtype=complex),
            decisions=np.zeros(n, dtype=complex),
            phases=np.zeros(n, dtype=float),
            source=np.full(n, -1, dtype=int),
        )


class ZigZagEngine:
    """Execute chunk schedules over captured collision signals."""

    def __init__(self, config: StreamConfig, captures: list[np.ndarray],
                 specs: dict[str, PacketSpec],
                 placements: list[PlacementParams], *,
                 measure_correction: bool = True,
                 reversed_totals: bool = False,
                 equalizers: dict | None = None,
                 symbol_isi: dict | None = None,
                 pilots: dict | None = None) -> None:
        if not captures:
            raise ConfigurationError("engine needs at least one capture")
        self.config = config
        self.residual = [np.array(c, dtype=complex, copy=True)
                         for c in captures]
        self.specs = specs
        self.measure_correction = measure_correction
        self.reversed_totals = reversed_totals
        self._preset_equalizers = dict(equalizers or {})
        self._preset_isi = dict(symbol_isi or {})
        self._pilots = dict(pilots or {})

        self.placements: dict[tuple[str, int], PlacementParams] = {}
        self.by_packet: dict[str, list[PlacementParams]] = {}
        for pl in placements:
            key = (pl.packet, pl.collision)
            if key in self.placements:
                raise ConfigurationError(f"duplicate placement {key}")
            if pl.packet not in specs:
                raise ConfigurationError(f"no spec for packet {pl.packet!r}")
            if not 0 <= pl.collision < len(captures):
                raise ConfigurationError("placement collision out of range")
            self.placements[key] = pl
            self.by_packet.setdefault(pl.packet, []).append(pl)

        self.streams: dict[tuple[str, int], SymbolStreamDecoder] = {}
        self.subtraction: dict[tuple[str, int], SubtractionState] = {
            key: SubtractionState() for key in self.placements
        }
        self.images: dict[tuple[str, int], np.ndarray] = {
            key: np.zeros(self.residual[key[1]].size, dtype=complex)
            for key in self.placements
        }
        self.reencoders: dict[tuple[str, int], Reencoder] = {}
        self.packets: dict[str, PacketAccumulator] = {
            name: PacketAccumulator.empty(spec.n_symbols)
            for name, spec in specs.items()
        }
        # Scratch buffers reused across chunk decodes (hot path): an
        # arange for the correction-loop phase ramps and one capture-sized
        # buffer per collision for the local residual+image view.
        self._arange_scratch = np.arange(256, dtype=float)
        self._local_scratch: dict[int, np.ndarray] = {}

    def _centered_offsets(self, i0: int, i1: int) -> np.ndarray:
        """``arange(i0, i1) - (i0 + i1)/2`` without a fresh allocation.

        Both terms are exact in floating point (integers and integer
        halves), so this matches the naive expression bit-for-bit.
        """
        n = i1 - i0
        if self._arange_scratch.size < n:
            self._arange_scratch = np.arange(
                max(n, 2 * self._arange_scratch.size), dtype=float)
        return self._arange_scratch[:n] + (0.5 * (i0 - i1))

    # ------------------------------------------------------------------
    # Lazily-built helpers
    # ------------------------------------------------------------------
    def _get_stream(self, packet: str, collision: int,
                    at_cursor: int = 0) -> SymbolStreamDecoder:
        key = (packet, collision)
        if key in self.streams and at_cursor > self.streams[key].cursor:
            # The schedule routed intermediate chunks through another
            # capture and is now coming back; the old tracker state is
            # stale, so rebuild from the subtraction-correction loop that
            # has been tracking this placement meanwhile.
            del self.streams[key]
        if key not in self.streams:
            pl = self.placements[key]
            spec = self.specs[packet]
            stream = SymbolStreamDecoder(
                self.config, pl.estimate, pl.start,
                body_constellation=spec.body_constellation,
                reversed_total=spec.n_symbols if self.reversed_totals
                else None,
                pilots=self._pilots.get(packet),
            )
            if key in self._preset_equalizers:
                stream.equalizer = self._preset_equalizers[key]
            if key in self._preset_isi:
                stream.channel_isi = self._preset_isi[key]
            if at_cursor > 0:
                # The packet switches decode-collision mid-stream (the
                # scheduler found its next chunk only in this capture).
                # Seed the new stream from the subtraction-correction loop
                # that has been tracking this placement so far, and inherit
                # the equalizer trained in the sibling capture.
                sub = self.subtraction[key]
                sps = self.config.shaper.sps
                position = pl.start + sps * at_cursor
                stream.estimate = pl.estimate.with_gain(
                    pl.estimate.gain * sub.predict(position))
                stream.tracker.freq = sub.freq * sps
                stream.cursor = at_cursor
                stream._refined = True
                for sibling in self.by_packet[packet]:
                    sib = self.streams.get((packet, sibling.collision))
                    if sib is not None and sib is not stream:
                        if stream.equalizer is None:
                            stream.equalizer = sib.equalizer
                        if stream.channel_isi is None:
                            stream.channel_isi = sib.channel_isi
                        break
            self.streams[key] = stream
        return self.streams[key]

    def _get_reencoder(self, packet: str, collision: int) -> Reencoder:
        key = (packet, collision)
        if key not in self.reencoders:
            pl = self.placements[key]
            self.reencoders[key] = Reencoder(
                shaper=self.config.shaper,
                estimate=pl.estimate,
                start=pl.start,
                symbol_isi=self._preset_isi.get(key),
            )
        return self.reencoders[key]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, steps: list[DecodeStep]) -> dict[str, PacketAccumulator]:
        """Execute a full schedule; returns the per-packet accumulators."""
        for step in steps:
            self.execute(step)
        return self.packets

    def execute(self, step: DecodeStep) -> None:
        """Execute one step: decode the chunk, then subtract its image
        from every capture the packet appears in."""
        packet, c = step.packet, step.collision
        stream = self._get_stream(packet, c, at_cursor=step.i0)
        if stream.cursor != step.i0:
            raise ConfigurationError(
                f"step {step} does not continue stream cursor "
                f"{stream.cursor}")
        # Local view: residual plus this packet's own already-subtracted
        # image (other packets' images stay subtracted). The stream only
        # reads from it during the call, so one scratch buffer per capture
        # serves every step.
        local = self._local_scratch.get(c)
        if local is None:
            local = np.empty_like(self.residual[c])
            self._local_scratch[c] = local
        np.add(self.residual[c], self.images[(packet, c)], out=local)
        chunk = stream.decode_chunk(local, step.i1)

        acc = self.packets[packet]
        sl = slice(step.i0, step.i1)
        acc.soft[sl] = chunk.soft
        acc.decisions[sl] = chunk.decisions
        acc.phases[sl] = chunk.phases
        acc.source[sl] = c

        for pl in self.by_packet[packet]:
            self._subtract_chunk(packet, pl.collision, c, chunk)

    def _subtract_chunk(self, packet: str, target: int, decoded_from: int,
                        chunk) -> None:
        key = (packet, target)
        reencoder = self._get_reencoder(packet, target)
        if target == decoded_from:
            # The decoding stream's own tracker phases are authoritative;
            # keep the re-encoder's estimate in sync with refinements.
            stream = self.streams[key]
            reencoder.estimate = stream.estimate
            if stream.channel_isi is not None:
                reencoder.symbol_isi = stream.channel_isi
            effective = chunk.effective_symbols
            segment, base = reencoder.image(effective, chunk.i0)
        else:
            sub = self.subtraction[key]
            sps = self.config.shaper.sps
            center = reencoder.start + sps * 0.5 * (chunk.i0 + chunk.i1)
            predicted = sub.predict(center)
            if sub.freq == 0.0:
                # No measured residual frequency yet (or none): the
                # intra-chunk ramp is all-ones, skip building it.
                effective = chunk.decisions * predicted
            else:
                effective = chunk.decisions * predicted * np.exp(
                    1j * sub.freq * sps
                    * self._centered_offsets(chunk.i0, chunk.i1))
            segment, base = reencoder.image(effective, chunk.i0)
            if self.measure_correction:
                correction = self._measure_and_update(
                    key, segment, base, chunk, reencoder, predicted, center)
                if correction != 1.0:
                    segment = segment * correction
        subtract_segment(self.residual[target], segment, base)
        add_segment(self.images[key], segment, base)

    def _measure_and_update(self, key, segment, base, chunk, reencoder,
                            predicted: complex, center: float) -> complex:
        """Measure image-vs-signal mismatch over the chunk core and update
        the correction loop; returns the factor to apply to this segment."""
        sub = self.subtraction[key]
        residual = self.residual[key[1]]
        core = reencoder.core_slice(chunk.i0, chunk.i1, base, segment.size)
        lo = base + core.start
        hi = base + core.stop
        if lo < 0 or hi > residual.size or hi <= lo:
            return 1.0
        seg_core = segment[core]
        # Scalar reductions via vdot (|x|^2 summed in one C call); the rest
        # of the update is pure-float arithmetic — this runs once per
        # chunk per subtract-only placement, hot enough that numpy scalar
        # ufunc boxing used to dominate it.
        denom = float(np.vdot(seg_core, seg_core).real)
        noise_floor = NOISE_POWER * (hi - lo)
        if denom < 4.0 * noise_floor:
            return 1.0  # too weak to measure against interference+noise
        window = residual[lo:hi]
        rho = complex(np.vdot(seg_core, window)) / denom
        # Contamination-adaptive gain: the measurement window still holds
        # the other (not yet subtracted) packet plus noise, whose power we
        # can estimate as the excess of the window over our own prediction.
        own_power = denom / (hi - lo)
        window_power = float(np.vdot(window, window).real) / (hi - lo)
        abs_rho = abs(rho)
        contamination = max(window_power - own_power * abs_rho * abs_rho,
                            0.0)
        measurement_var = contamination / max(denom, 1e-30)
        prior_var = 0.02  # typical squared relative error of the estimates
        gain = CORRECTION_ALPHA * prior_var / (prior_var + measurement_var)
        magnitude = min(max(abs_rho, 0.5), 2.0)
        angle = math.atan2(rho.imag, rho.real)
        scaled = gain * angle
        correction = (magnitude ** gain) * complex(math.cos(scaled),
                                                   math.sin(scaled))
        sub.multiplier = predicted * correction
        if sub.last_position is not None:
            dt = center - sub.last_position
            if dt > 0:
                max_step = 0.1 / dt
                step = CORRECTION_BETA * gain * angle / dt
                sub.freq += min(max(step, -max_step), max_step)
        sub.last_position = center
        return correction

    # ------------------------------------------------------------------
    # End-state export (for backward decoding)
    # ------------------------------------------------------------------
    def final_multiplier(self, packet: str, collision: int) -> complex:
        """Total complex factor (gain x ramp x tracked phase) multiplying
        the packet's last symbol in this capture — the quantity that
        becomes the conjugate gain of the time-reversed channel."""
        key = (packet, collision)
        pl = self.placements[key]
        spec = self.specs[packet]
        sps = self.config.shaper.sps
        last_pos = pl.start + sps * (spec.n_symbols - 1)
        if key in self.streams:
            stream = self.streams[key]
            static = stream.estimate.gain * np.exp(
                2j * np.pi * stream.estimate.freq_offset * last_pos)
            return complex(static * np.exp(1j * stream.tracker.phase))
        sub = self.subtraction[key]
        static = pl.estimate.gain * np.exp(
            2j * np.pi * pl.estimate.freq_offset * last_pos)
        return complex(static * sub.predict(last_pos))

    def final_freq(self, packet: str, collision: int) -> float:
        """Best total frequency-offset estimate, cycles per sample."""
        key = (packet, collision)
        if key in self.streams:
            return self.streams[key].total_freq_offset()
        pl = self.placements[key]
        sub = self.subtraction[key]
        return pl.estimate.freq_offset + sub.freq / (2.0 * np.pi)

    def residual_power(self, collision: int) -> float:
        """Mean |residual|^2 — should approach the noise floor after a
        successful run (diagnostic)."""
        r = self.residual[collision]
        return float(np.mean(np.abs(r) ** 2))
