"""The incremental "standard decoder" invoked chunk-by-chunk (§4.2.3a).

A :class:`SymbolStreamDecoder` owns the receive state for *one packet in one
capture*: fractional start position, channel estimate, decision-directed
phase tracker, and (optionally) a linear equalizer trained on the preamble.
Chunks must be decoded left-to-right; each call consumes the next symbol
range from an interference-free signal and returns soft symbols, hard
decisions, and the per-symbol tracked phases that the ZigZag re-encoder
needs for accurate subtraction.

The paper's key architectural claim — "ZigZag can employ a standard 802.11
decoder as a black box" — maps here: :class:`StandardDecoder` uses this
class to decode a whole packet as one big chunk, while the ZigZag engine
feeds it the zigzag chunk schedule. Both paths run the identical DSP.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.phy.constellation import BPSK, Constellation
from repro.phy.equalizer import LmsEqualizer
from repro.phy.estimation import ChannelEstimate
from repro.phy.frame import HEADER_BITS
from repro.phy.noise import NOISE_POWER
from repro.phy.preamble import Preamble
from repro.phy.pulse import MatchedSampler, PulseShaper
from repro.phy.tracking import PhaseTracker

__all__ = ["StreamConfig", "ChunkDecode", "SymbolStreamDecoder"]

# Taps of the linear equalizer trained on the preamble (§5.1a ISI filter).
EQUALIZER_TAPS = 5
# Symbols sampled past each chunk edge to feed the equalizer's FIR edges.
EDGE_GUARD = 3


@dataclass(frozen=True)
class StreamConfig:
    """Shared knobs for every stream decoder in one receiver.

    ``track_phase`` and ``use_equalizer`` exist specifically to reproduce
    the Table 5.1 ablations (frequency/phase tracking off; ISI filter off).
    """

    preamble: Preamble
    shaper: PulseShaper = PulseShaper()
    track_phase: bool = True
    use_equalizer: bool = True


@dataclass
class ChunkDecode:
    """Output of decoding one chunk: symbol range [i0, i1) of the packet."""

    i0: int
    i1: int
    soft: np.ndarray
    decisions: np.ndarray
    phases: np.ndarray

    @property
    def effective_symbols(self) -> np.ndarray:
        """Decisions re-rotated by the tracked phases — what the channel
        actually carried, as far as the receiver can tell. This is the input
        to the re-encoder (§4.2.3b)."""
        return self.decisions * np.exp(1j * self.phases)


class StreamBookkeeping:
    """Region bookkeeping and state export of a stream decoder.

    Shared by :class:`SymbolStreamDecoder` and the trial-axis
    :class:`~repro.receiver.batchstream.BatchedStreamDecoder`, whose
    ``tracker`` and ``freq_offset`` hold one value per lane. A subclass
    sets ``config``, ``body_constellation``, ``reversed_total``,
    ``_preamble_len``, ``tracker`` and ``freq_offset``.
    """

    def constellation_at(self, index: int) -> Constellation:
        """Constellation used for symbol *index* (BPSK until the payload).

        For time-reversed streams (``reversed_total`` set) the payload
        region sits at the *front* and the preamble/header (BPSK) at the
        back.
        """
        if self.reversed_total is not None:
            boundary = self.reversed_total - (
                len(self.config.preamble) + HEADER_BITS)
            return self.body_constellation if index < boundary else BPSK
        if index < self._preamble_len + HEADER_BITS:
            return BPSK
        return self.body_constellation

    def _segment_end(self, start: int, limit: int) -> int:
        """Next boundary where knowledge/constellation changes."""
        if self.reversed_total is not None:
            pre_hdr = len(self.config.preamble) + HEADER_BITS
            boundaries = [self.reversed_total - pre_hdr]
        else:
            boundaries = [self._preamble_len,
                          self._preamble_len + HEADER_BITS]
        for b in boundaries:
            if start < b < limit:
                return b
        return limit

    @property
    def tracked_freq_cycles(self):
        """Residual frequency the tracker converged to, cycles/symbol."""
        return self.tracker.freq / (2.0 * np.pi)

    def total_freq_offset(self):
        """Static estimate + tracked residual, cycles per sample."""
        sps = self.config.shaper.sps
        return self.freq_offset + self.tracked_freq_cycles / sps


class SymbolStreamDecoder(StreamBookkeeping):
    """Stateful per-(packet, capture) decoder; see module docstring.

    Parameters
    ----------
    config:
        Shared :class:`StreamConfig`.
    estimate:
        Initial channel estimate (gain, freq offset). The gain is refined
        once the full preamble has been decoded interference-free.
    start:
        Fractional sample position of symbol 0's pulse centre in the
        capture buffer (integer peak position + sub-sample offset); symbol
        k sits at ``start + k * sps``.
    body_constellation:
        Constellation of the payload region (preamble and header are BPSK).
    reversed_total:
        Frame length in symbols of a time-reversed (backward) stream, None
        for a forward one. A forward stream tracks symbols with index < L
        against the known preamble and uses them to refine the gain and
        train the equalizer (``data_aided_preamble``); a reversed stream
        meets its preamble last and does neither.
    """

    def __init__(self, config: StreamConfig, estimate: ChannelEstimate,
                 start: float, body_constellation: Constellation = BPSK,
                 reversed_total: int | None = None,
                 pilots: np.ndarray | None = None) -> None:
        self.config = config
        self.estimate = estimate
        self.start = float(start)
        self.body_constellation = body_constellation
        self.data_aided_preamble = reversed_total is None
        self.reversed_total = reversed_total
        # Optional per-symbol reference points (e.g. the forward pass's
        # decisions for a backward stream): the tracker locks to these
        # instead of its own slicer, hardening phase tracking without
        # affecting the independence of the measured soft symbols.
        self.pilots = None if pilots is None \
            else np.asarray(pilots, dtype=complex).ravel()
        self.sampler = MatchedSampler(config.shaper)
        self.tracker = PhaseTracker(enabled=config.track_phase)
        self.equalizer: LmsEqualizer | None = None
        self.channel_isi = None  # IsiFilter for re-encoding, once trained
        self.cursor = 0
        self._preamble_len = (len(config.preamble)
                              if self.data_aided_preamble else 0)
        self._pre_acc = np.full(self._preamble_len, np.nan + 0j, dtype=complex)
        self._refined = not self.data_aided_preamble
        self._derotate_powers: dict[float, np.ndarray] = {}

    @property
    def freq_offset(self) -> float:
        """Static frequency-offset estimate, cycles per sample."""
        return self.estimate.freq_offset

    def set_body_constellation(self, constellation: Constellation) -> None:
        """Install the payload constellation once the header is parsed."""
        self.body_constellation = constellation

    # ------------------------------------------------------------------
    # Core chunk decode
    # ------------------------------------------------------------------
    def _interpolate(self, signal: np.ndarray, i0: int, i1: int) -> np.ndarray:
        sps = self.config.shaper.sps
        return self.sampler.sample(signal, self.start + sps * i0, i1 - i0)

    def _static_derotate(self, raw: np.ndarray, i0: int) -> np.ndarray:
        """Remove the static channel model: gain and frequency-offset ramp.

        The ramp is geometric in the symbol index, so its per-symbol
        rotation powers are cached per frequency estimate (it changes at
        most once, at preamble refinement) and each chunk costs one scalar
        rotation plus one vector multiply instead of fresh trigonometry.
        """
        est = self.estimate
        sps = self.config.shaper.sps
        gain = est.gain if est.gain != 0 else 1e-12
        freq = est.freq_offset
        powers = self._derotate_powers.get(freq)
        if powers is None or powers.size < raw.size:
            capacity = max(raw.size, 64,
                           0 if powers is None else 2 * powers.size)
            steps = np.full(capacity,
                            cmath.exp(-2j * math.pi * freq * sps))
            steps[0] = 1.0 + 0j
            powers = np.cumprod(steps)
            self._derotate_powers[freq] = powers
        rot0 = cmath.exp(-2j * math.pi * freq * (self.start + sps * i0))
        return raw * (powers[:raw.size] * (rot0 / gain))

    def decode_chunk(self, signal, i1: int) -> ChunkDecode:
        """Decode symbols ``[cursor, i1)`` from an interference-free signal.

        *signal* is the full capture buffer (already cleaned of other
        packets over this chunk's footprint). Chunks are strictly
        sequential; ``i1`` must exceed the current cursor.
        """
        i0 = self.cursor
        if i1 <= i0:
            raise ConfigurationError(
                f"chunk end {i1} must exceed cursor {i0}"
            )
        # The guard region only feeds the equalizer's FIR edges; when no
        # equalizer has been trained (clean channels at moderate SNR) the
        # guard symbols would be sampled, derotated, and sliced away.
        guard = EDGE_GUARD \
            if self.config.use_equalizer and self.equalizer is not None \
            else 0
        lo = max(0, i0 - guard)
        raw = self._interpolate(np.asarray(signal, dtype=complex), lo, i1 + guard)
        z = self._static_derotate(raw, lo)
        if self.equalizer is not None:
            z = self.equalizer.equalize(z)
        z = z[i0 - lo: i0 - lo + (i1 - i0)]

        soft = np.empty(i1 - i0, dtype=complex)
        decisions = np.empty(i1 - i0, dtype=complex)
        phases = np.empty(i1 - i0, dtype=float)
        # Process in segments of constant constellation / knowledge.
        seg_start = i0
        while seg_start < i1:
            seg_end = self._segment_end(seg_start, i1)
            local = slice(seg_start - i0, seg_end - i0)
            known = None
            is_preamble_segment = (self.data_aided_preamble
                                   and seg_start < self._preamble_len)
            if is_preamble_segment:
                known = self.config.preamble.symbols[seg_start:seg_end]
            elif self.pilots is not None and seg_end <= self.pilots.size:
                candidate = self.pilots[seg_start:seg_end]
                if np.all(candidate != 0):
                    known = candidate
            constellation = self.constellation_at(seg_start)
            seg_soft, seg_dec, seg_phases = self.tracker.process(
                z[local], constellation, known=known)
            soft[local] = seg_soft
            decisions[local] = seg_dec
            phases[local] = seg_phases
            if is_preamble_segment:
                self._pre_acc[seg_start:seg_end] = z[local]
            seg_start = seg_end

        self.cursor = i1
        if not self._refined and not np.any(np.isnan(self._pre_acc)):
            self._refine_from_preamble()
        return ChunkDecode(i0, i1, soft, decisions, phases)

    # ------------------------------------------------------------------
    # Preamble-driven refinement (§4.2.4a + equalizer training)
    # ------------------------------------------------------------------
    def _refine_from_preamble(self) -> None:
        """Refine the gain and train the equalizer from the clean preamble.

        ``_pre_acc`` holds the preamble region after static derotation and
        tracker correction is *not* applied (we stored pre-tracker z), so a
        least-squares fit against the known symbols measures the residual
        complex gain; folding it into the estimate makes subsequent chunks
        (and crucially the re-encoded images) more accurate.
        """
        self._refined = True
        s = self.config.preamble.symbols
        z = self._pre_acc
        residual_gain = np.vdot(s, z) / np.vdot(s, s)
        if abs(residual_gain) > 1e-9:
            self.estimate = self.estimate.with_gain(
                self.estimate.gain * residual_gain)
            # The tracker has been absorbing exactly this static phase; now
            # that the static model includes it, re-zero the loop so the
            # next chunk is not double-corrected.
            self.tracker.phase -= float(np.angle(residual_gain))
            z = z / residual_gain
        if self.config.use_equalizer and z.size >= EQUALIZER_TAPS:
            # Only train when the preamble residual exceeds what receiver
            # noise alone explains — otherwise a 32-symbol fit would add
            # pure misadjustment noise (no ISI to remove).
            residual_power = float(np.mean(np.abs(z - s) ** 2))
            gain_power = abs(self.estimate.gain) ** 2
            noise_in_symbol_domain = NOISE_POWER / max(gain_power, 1e-30)
            if residual_power > 1.5 * noise_in_symbol_domain:
                eq = LmsEqualizer(n_taps=EQUALIZER_TAPS)
                eq.fit_least_squares(
                    z, s, ridge=2.0 * z.size * residual_power)
                self.equalizer = eq
                self.channel_isi = eq.inverse_channel(
                    max(9, 2 * EQUALIZER_TAPS + 1))
