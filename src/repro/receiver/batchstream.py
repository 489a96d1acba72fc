"""Trial-axis batched counterpart of :class:`SymbolStreamDecoder`.

A :class:`BatchedStreamDecoder` owns the receive state for *one packet in
one capture across N independent trials* advancing in lockstep: every lane
is at the same symbol cursor, decodes the same chunk boundaries, and sees
the same segment structure (preamble / header / body), which is exactly
what the schedule-signature grouping in :mod:`repro.zigzag.batch`
guarantees. Per-lane quantities — gain, frequency offset, fractional start,
tracker state — live in arrays.

Differences from the scalar path, by design:

* **No equalizer.** Training one is rare (it needs a preamble residual
  above what noise explains) and makes subsequent chunks lane-divergent.
  The decoder instead *detects* the training condition per lane during
  preamble refinement and raises :attr:`wants_equalizer`; the batched
  engine discards those lanes' outputs and replays the trials through the
  exact scalar path.

* **Pilot knowledge must be lane-uniform per segment.** Constellation
  decisions are never zero, so in practice it always is; a mixed segment
  raises :class:`BatchDivergence` and the engine falls back to the loop
  path for the whole group (bit-identical results, just slower).

Float policy matches the scalar kernels' against their oracles:
decisions/bits are identical to the scalar path, float internals agree
to ~1e-9. The
derotation constants are built with the same ``cmath``/cumprod operations
as the scalar decoder so the tracker sees bit-identical inputs wherever
that is cheap to arrange.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, ReproError
from repro.phy.batch import BatchedMatchedSampler, BatchedPhaseTracker
from repro.phy.constellation import BPSK, Constellation
from repro.phy.estimation import ChannelEstimate
from repro.phy.noise import NOISE_POWER
from repro.phy.tracking import LOOP_KI, LOOP_KP
from repro.receiver.frontend import (
    EQUALIZER_TAPS,
    StreamBookkeeping,
    StreamConfig,
)

__all__ = ["BatchDivergence", "BatchChunkDecode", "BatchedStreamDecoder"]


class BatchDivergence(ReproError):
    """A batched group can no longer advance in lockstep.

    Raised when lanes disagree about segment knowledge in a way the
    lockstep tracker cannot express. The caller falls back to the exact
    scalar loop for the affected trials.
    """


@dataclass
class BatchChunkDecode:
    """Batched chunk decode: symbol range [i0, i1) across all lanes."""

    i0: int
    i1: int
    soft: np.ndarray        # (N, L) complex
    decisions: np.ndarray   # (N, L) complex
    phases: np.ndarray      # (N, L) float

    @property
    def effective_symbols(self) -> np.ndarray:
        """Decisions re-rotated by the tracked phases, per lane — the
        re-encoder input (§4.2.3b)."""
        return self.decisions * np.exp(1j * self.phases)


class BatchedStreamDecoder(StreamBookkeeping):
    """Lockstep stream decoder for one (packet, capture) over N trials.

    Parameters mirror :class:`SymbolStreamDecoder`, with per-lane arrays
    where the scalar takes scalars. *estimates* is a sequence of per-lane
    :class:`ChannelEstimate`; *starts* the per-lane fractional position of
    symbol 0's pulse centre; *pilots*, when given, is ``(N, n_symbols)``.
    """

    def __init__(self, config: StreamConfig, estimates, starts,
                 body_constellation: Constellation = BPSK,
                 reversed_total: int | None = None,
                 pilots: np.ndarray | None = None) -> None:
        self.config = config
        self.estimates = list(estimates)
        self.starts = np.asarray(starts, dtype=float).ravel()
        n = self.starts.size
        if len(self.estimates) != n:
            raise ConfigurationError("estimates/starts length mismatch")
        self.gains = np.array([e.gain for e in self.estimates],
                              dtype=complex)
        self.freq_offset = np.array(
            [e.freq_offset for e in self.estimates], dtype=float)
        self.body_constellation = body_constellation
        self.data_aided_preamble = reversed_total is None
        self.reversed_total = reversed_total
        self.pilots = None if pilots is None \
            else np.asarray(pilots, dtype=complex)
        if self.pilots is not None and self.pilots.shape[0] != n:
            raise ConfigurationError("pilots must have one row per lane")
        self.sampler = BatchedMatchedSampler(config.shaper)
        self.tracker = BatchedPhaseTracker(
            kp=LOOP_KP, ki=LOOP_KI, phase=np.zeros(n),
            freq=np.zeros(n), enabled=config.track_phase)
        self.cursor = 0
        self._preamble_len = (len(config.preamble)
                              if self.data_aided_preamble else 0)
        self._pre_acc = np.full((n, self._preamble_len), np.nan + 0j,
                                dtype=complex)
        self._refined = not self.data_aided_preamble
        # Lanes whose preamble residual would have trained the scalar
        # equalizer: their batched outputs must be discarded and the
        # trials replayed through the exact scalar path.
        self.wants_equalizer = np.zeros(n, dtype=bool)
        self._derotate_powers: np.ndarray | None = None

    @property
    def n_lanes(self) -> int:
        return self.starts.size

    # ------------------------------------------------------------------
    # Core chunk decode
    # ------------------------------------------------------------------
    def _static_derotate(self, raw: np.ndarray, i0: int) -> np.ndarray:
        """Per-lane gain/frequency-ramp removal via cached cumulative
        rotation powers (one scalar rotation per lane per chunk).

        Agrees with the scalar decoder's cmath-built constants to ~1 ulp;
        the trackers' branch-margin ejection absorbs the difference, so
        decisions still match the scalar path bit-for-bit.
        """
        sps = self.config.shaper.sps
        n, size = raw.shape
        powers = self._derotate_powers
        if powers is None or powers.shape[1] < size:
            capacity = max(size, 64,
                           0 if powers is None else 2 * powers.shape[1])
            steps = np.broadcast_to(
                np.exp(-2j * np.pi * self.freq_offset * sps)[:, None],
                (n, capacity)).copy()
            steps[:, 0] = 1.0 + 0j
            powers = np.cumprod(steps, axis=1)
            self._derotate_powers = powers
        safe_gains = np.where(self.gains != 0, self.gains, 1e-12)
        rot = (np.exp(-2j * np.pi * self.freq_offset
                      * (self.starts + sps * i0))
               / safe_gains)[:, None]
        return raw * (powers[:, :size] * rot)

    def decode_chunk(self, padded: np.ndarray, origin: int,
                     i1: int) -> BatchChunkDecode:
        """Decode symbols ``[cursor, i1)`` of every lane in lockstep.

        *padded* is the ``(N, P)`` zero-padded residual buffer with capture
        sample s of lane n at ``padded[n, s + origin]``.
        """
        i0 = self.cursor
        if i1 <= i0:
            raise ConfigurationError(
                f"chunk end {i1} must exceed cursor {i0}")
        sps = self.config.shaper.sps
        raw = self.sampler.sample(padded, origin,
                                  self.starts + sps * i0, i1 - i0)
        z = self._static_derotate(raw, i0)

        n = self.n_lanes
        soft = np.empty((n, i1 - i0), dtype=complex)
        decisions = np.empty((n, i1 - i0), dtype=complex)
        phases = np.empty((n, i1 - i0), dtype=float)
        seg_start = i0
        while seg_start < i1:
            seg_end = self._segment_end(seg_start, i1)
            local = slice(seg_start - i0, seg_end - i0)
            known = None
            is_preamble_segment = (self.data_aided_preamble
                                   and seg_start < self._preamble_len)
            if is_preamble_segment:
                known = np.broadcast_to(
                    self.config.preamble.symbols[seg_start:seg_end],
                    (n, seg_end - seg_start))
            elif (self.pilots is not None
                  and seg_end <= self.pilots.shape[1]):
                candidate = self.pilots[:, seg_start:seg_end]
                live = (candidate != 0).all(axis=1)
                if live.all():
                    known = candidate
                elif live.any():
                    raise BatchDivergence(
                        "pilot knowledge differs across lanes")
            constellation = self.constellation_at(seg_start)
            seg_soft, seg_dec, seg_phases = self.tracker.process(
                z[:, local], constellation, known=known)
            soft[:, local] = seg_soft
            decisions[:, local] = seg_dec
            phases[:, local] = seg_phases
            if is_preamble_segment:
                self._pre_acc[:, seg_start:seg_end] = z[:, local]
            seg_start = seg_end

        self.cursor = i1
        if not self._refined and not np.any(np.isnan(self._pre_acc)):
            self._refine_from_preamble()
        return BatchChunkDecode(i0, i1, soft, decisions, phases)

    # ------------------------------------------------------------------
    # Preamble-driven refinement (§4.2.4a), batched
    # ------------------------------------------------------------------
    def _refine_from_preamble(self) -> None:
        self._refined = True
        s = self.config.preamble.symbols
        z = self._pre_acc
        denom = np.vdot(s, s)
        residual_gain = (z @ np.conj(s)) / denom
        update = np.abs(residual_gain) > 1e-9
        if update.any():
            self.gains[update] = (self.gains[update]
                                  * residual_gain[update])
            self.tracker.phase[update] -= np.angle(residual_gain[update])
            z = z.copy()
            z[update] = z[update] / residual_gain[update, None]
        if self.config.use_equalizer \
                and z.shape[1] >= EQUALIZER_TAPS:
            residual_power = np.mean(np.abs(z - s) ** 2, axis=1)
            gain_power = np.abs(self.gains) ** 2
            noise_in_symbol_domain = (NOISE_POWER
                                      / np.maximum(gain_power, 1e-30))
            self.wants_equalizer = (
                residual_power > 1.5 * noise_in_symbol_domain)

    def current_estimate(self, lane: int) -> ChannelEstimate:
        """The lane's estimate with refined gain folded in (what the
        scalar decoder's ``estimate`` attribute would hold)."""
        return self.estimates[lane].with_gain(complex(self.gains[lane]))
