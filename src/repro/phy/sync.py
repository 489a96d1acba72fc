"""Packet synchronization against the pulse-shaped preamble waveform.

Detection correlates the *shaped* preamble waveform (not raw symbols)
against the received samples, with optional frequency-offset compensation —
the §4.2.1 machinery at 2 samples/symbol. Acquisition then refines the
fractional timing, frequency offset and complex gain on matched-filtered
symbol-domain values (§4.2.4a–c).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import CollisionDetectError, ConfigurationError
from repro.phy.correlation import CorrelationPeak
from repro.phy.estimation import ChannelEstimate
from repro.phy.preamble import Preamble
from repro.phy.pulse import MatchedSampler, PulseShaper

__all__ = ["Synchronizer"]


@dataclass
class Synchronizer:
    """Detect packet starts and acquire channel parameters.

    Positions reported by :meth:`detect` (and consumed by :meth:`acquire`)
    are the *sample* index of symbol 0's pulse centre — the coordinate
    system every receiver component shares.
    """

    preamble: Preamble
    shaper: PulseShaper = field(default_factory=PulseShaper)
    threshold: float = 0.6
    _waveform: np.ndarray = field(init=False, repr=False)
    _sampler: MatchedSampler = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold <= 1.0:
            raise ConfigurationError("threshold must lie in (0, 1]")
        self._waveform = self.shaper.shape(self.preamble.symbols)
        self._sampler = MatchedSampler(self.shaper)
        self._score_refs: dict[float, np.ndarray] = {}
        self._detect_refs: dict[float, np.ndarray] = {}

    @property
    def reference_energy(self) -> float:
        return float(np.sum(np.abs(self._waveform) ** 2))

    # ------------------------------------------------------------------
    # Detection (Fig 4-2)
    # ------------------------------------------------------------------
    @staticmethod
    def _candidates(coarse_freq) -> tuple[bool, list]:
        """``(scalar, freqs)``: a single offset is a one-element list."""
        if np.ndim(coarse_freq) == 0:
            return True, [coarse_freq]
        return False, list(coarse_freq)

    def _reference(self, cache: dict, coarse_freq: float, build
                   ) -> np.ndarray:
        """A per-frequency reference, built once and reused: every
        capture is scored against the same client-table offsets."""
        reference = cache.get(coarse_freq)
        if reference is None:
            if len(cache) >= 1024:
                # Synchronizers are shared across trials and every trial
                # estimates a fresh coarse frequency; bound the cache.
                cache.clear()
            reference = cache[coarse_freq] = build(coarse_freq)
        return reference

    def correlate(self, signal, coarse_freq: float = 0.0) -> np.ndarray:
        """Complex sliding correlation of the preamble waveform, with
        frequency compensation; index d corresponds to a waveform starting
        at sample d (symbol 0 centre at ``d + shaper.delay``)."""
        y = np.asarray(signal, dtype=complex).ravel()
        if y.size < self._waveform.size:
            raise CollisionDetectError(
                "signal shorter than the preamble waveform")
        n = np.arange(self._waveform.size)
        reference = self._reference(
            self._detect_refs, coarse_freq,
            lambda f: self._waveform * np.exp(2j * np.pi * f * n))
        return np.correlate(y, reference, mode="valid")

    def _score_denominator(self, y: np.ndarray) -> np.ndarray:
        """Score normalization: preamble energy times the energy of each
        capture window. Independent of the frequency hypothesis."""
        window = self._waveform.size
        energy = np.convolve(np.abs(y) ** 2, np.ones(window), mode="valid")
        return np.sqrt(self.reference_energy * np.maximum(energy, 1e-30))

    def correlation_scores(self, signal,
                           coarse_freq: float = 0.0) -> np.ndarray:
        """Normalized |correlation| in [0, 1] for thresholding."""
        y = np.asarray(signal, dtype=complex).ravel()
        corr = self.correlate(y, coarse_freq)
        return np.abs(corr) / self._score_denominator(y)

    def detect(self, signal, coarse_freq=0.0,
               max_peaks: int | None = None,
               min_separation: int = 16,
               ) -> list[CorrelationPeak] | list[list[CorrelationPeak]]:
        """All packet starts whose normalized correlation clears threshold.

        Returns peaks sorted by position; ``position`` is the integer part
        of symbol 0's pulse-centre sample index. ``min_separation`` merges
        detections closer than that many samples into the strongest one —
        it must stay well below a backoff slot so closely-jittered
        colliding packets still register separately.

        *coarse_freq* may also be a sequence of candidate offsets (the
        AP's client table, §4.2.1): the result is then one peak list per
        candidate, in order, each identical to a scalar call. The energy
        normalization is computed once for the whole list.
        """
        y = np.asarray(signal, dtype=complex).ravel()
        scalar, freqs = self._candidates(coarse_freq)
        found = []
        denom = None
        for freq in freqs:
            # One correlation pass serves both the peak values and the
            # scores (correlate also rejects a too-short capture first).
            corr = self.correlate(y, freq)
            if denom is None:
                denom = self._score_denominator(y)
            found.append(self._select_peaks(corr, np.abs(corr) / denom,
                                            max_peaks, min_separation))
        return found[0] if scalar else found

    def _select_peaks(self, corr: np.ndarray, scores: np.ndarray,
                      max_peaks: int | None,
                      min_separation: int) -> list[CorrelationPeak]:
        """Greedy strongest-first selection with merge suppression."""
        separation = min_separation
        candidates = np.flatnonzero(scores >= self.threshold)
        used = np.zeros(scores.size, dtype=bool)
        peaks: list[CorrelationPeak] = []
        for idx in candidates[np.argsort(-scores[candidates])]:
            if used[idx]:
                continue
            lo = max(0, idx - separation)
            hi = min(scores.size, idx + separation + 1)
            used[lo:hi] = True
            peaks.append(CorrelationPeak(
                position=int(idx) + self.shaper.delay,
                fine_offset=0.0,
                value=complex(corr[idx]),
                score=float(scores[idx]),
            ))
            if max_peaks is not None and len(peaks) >= max_peaks:
                break
        peaks.sort(key=lambda p: p.position)
        return peaks

    # ------------------------------------------------------------------
    # Acquisition (§4.2.4)
    # ------------------------------------------------------------------
    def acquire(self, signal, position: int, *, coarse_freq=0.0,
                noise_power: float = 1.0, n_segments: int = 4,
                refine_freq: bool = False, sampled: dict | None = None,
                ) -> ChannelEstimate | list[ChannelEstimate]:
        """Estimate (mu, freq offset, gain, SNR) at a detected packet start.

        The returned estimate's model is
        ``mf_output[k] ≈ gain * s[k] * exp(j 2π f (start + sps*k))`` with
        ``start = position + sampling_offset`` — exactly what
        :class:`~repro.receiver.frontend.SymbolStreamDecoder` inverts.

        The fractional timing ``sampling_offset`` maximizes the
        matched-filter correlation with the derotated preamble over a
        grid of offsets, then a parabolic polish. The grid's samples do
        not depend on the frequency hypothesis, so *coarse_freq* may also
        be a sequence of candidate offsets (the AP's client table): the
        grid is sampled once and scored against each candidate, and the
        result is one estimate per candidate, in order, each identical to
        a scalar call.

        *sampled*, when given, keeps the matched-filter preamble outputs
        taken on this same *signal*, keyed by start sample, across calls:
        acquire reads it and adds what it samples, so a capture that is
        acquired again (the standard decode and then the collision path,
        later decode attempts) never samples the same start twice.

        ``refine_freq`` re-fits the frequency offset from the preamble's
        segment-correlation phase slope. A 32-symbol preamble bounds that
        fit to a few 1e-4 cycles/sample, so when the caller holds a good
        per-client coarse estimate (the paper's client table, §4.2.1 /
        §4.2.4b) leaving this off and letting the decision-directed tracker
        absorb the residual is strictly better; enable it only when no
        prior estimate exists.
        """
        y = np.asarray(signal, dtype=complex).ravel()
        scalar, freqs = self._candidates(coarse_freq)
        length = len(self.preamble)
        sps = self.shaper.sps
        k = np.arange(length)
        step = 0.2
        offsets = np.arange(-0.8, 0.8 + step / 2, step)
        # Matched-filter outputs by start: a refined start that lands on
        # a grid point, or repeats another candidate's, reuses them.
        sampled = {} if sampled is None else sampled

        def outputs(start: float) -> np.ndarray:
            symbols = sampled.get(start)
            if symbols is None:
                symbols = sampled[start] = self._sampler.sample(
                    y, start, length)
            return symbols

        grid = [outputs(float(position + d)) for d in offsets]
        estimates = []
        for coarse in freqs:
            # The exp(-2jπ f start) phase common to every term has unit
            # modulus and cannot change a score, so the score reference
            # depends on the frequency only.
            reference = self._reference(
                self._score_refs, coarse, lambda f: self.preamble.symbols
                * np.exp(2j * np.pi * f * sps * k))
            scores = np.array([abs(complex(np.vdot(reference, symbols)))
                               for symbols in grid])
            best = int(np.argmax(scores))
            frac = 0.0
            if 0 < best < offsets.size - 1:
                left, mid, right = scores[best - 1:best + 2]
                denom = left - 2.0 * mid + right
                if denom != 0:
                    frac = float(np.clip(0.5 * (left - right) / denom, -1, 1))
            mu = float(offsets[best] + frac * step)
            start = float(position + mu)
            estimates.append(self._fit(outputs(start), start, mu, coarse,
                                       noise_power, n_segments, refine_freq))
        return estimates[0] if scalar else estimates

    def _fit(self, aligned: np.ndarray, start: float, mu: float,
             coarse_freq: float, noise_power: float, n_segments: int,
             refine_freq: bool) -> ChannelEstimate:
        """Frequency, gain and SNR from the preamble's matched-filter
        outputs at the refined start."""
        length = len(self.preamble)
        sps = self.shaper.sps
        k = np.arange(length)
        sample_pos = start + sps * k
        freq = coarse_freq
        if refine_freq:
            derotated = aligned * np.exp(
                -2j * np.pi * coarse_freq * sample_pos)
            seg = length // n_segments
            correlations = np.empty(n_segments, dtype=complex)
            for m in range(n_segments):
                sl = slice(m * seg, (m + 1) * seg)
                correlations[m] = np.sum(
                    np.conj(self.preamble.symbols[sl]) * derotated[sl])
            phases = np.unwrap(np.angle(correlations))
            weights = np.abs(correlations)
            if np.any(weights > 0):
                centers = np.arange(n_segments, dtype=float) * seg * sps
                w = weights / weights.sum()
                xm = np.sum(w * centers)
                ym = np.sum(w * phases)
                var = np.sum(w * (centers - xm) ** 2)
                if var > 0:
                    slope = np.sum(
                        w * (centers - xm) * (phases - ym)) / var
                    freq = coarse_freq + slope / (2.0 * np.pi)

        reference = self.preamble.symbols * np.exp(
            2j * np.pi * freq * sample_pos)
        gain = np.vdot(reference, aligned) / len(self.preamble)
        power = abs(gain) ** 2
        snr_db = 10.0 * np.log10(max(power / max(noise_power, 1e-30), 1e-12))
        return ChannelEstimate(
            gain=complex(gain),
            freq_offset=float(freq),
            sampling_offset=float(mu),
            snr_db=float(snr_db),
        )
