"""Packet synchronization against the pulse-shaped preamble waveform.

Detection correlates the *shaped* preamble waveform (not raw symbols)
against the received samples, with optional frequency-offset compensation —
the §4.2.1 machinery at 2 samples/symbol. Acquisition then refines the
fractional timing and fits the complex gain at each candidate frequency
offset on matched-filtered symbol-domain values (§4.2.4a–c).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import CollisionDetectError, ConfigurationError
from repro.phy.correlation import CorrelationPeak
from repro.phy.estimation import ChannelEstimate
from repro.phy.noise import NOISE_POWER
from repro.phy.preamble import Preamble
from repro.phy.pulse import MatchedSampler, PulseShaper

__all__ = ["Synchronizer", "correlate_at"]

# Acquisition's fractional-timing grid, in samples around the detected
# start. Python floats: the same IEEE arithmetic as numpy scalars, at a
# fraction of the per-operation cost.
_GRID_STEP = 0.2
_GRID_OFFSETS = np.arange(-0.8, 0.8 + _GRID_STEP / 2, _GRID_STEP).tolist()
# Up to this many candidates, acquisition scores every grid point with
# np.vdot directly: cheaper than the shared product and its checks.
_EXACT_ROWS_UP_TO = 1
# Detections closer than this many samples merge into the strongest one.
# It must stay well below a backoff slot, so that closely-jittered
# colliding packets still register separately.
MIN_SEPARATION = 16
# Near-tie guard of the shared scoring product, relative to the l1 norm
# of the grid's outputs. Either way of summing a preamble correlation
# rounds by at most about (length + 4) * 2**-53 of its grid point's l1
# norm, many orders of magnitude below this.
_TIE_GUARD = 1e-9


def correlate_at(y: np.ndarray, references: np.ndarray,
                 lags: np.ndarray) -> np.ndarray:
    """``np.correlate(y, reference, mode="valid")[lags]`` for every row
    of *references*, as one ``(len(references), len(lags))`` array.

    Row d of a read-only window view is the capture under a reference
    starting at sample d; ``np.vecdot`` conjugates the reference and sums
    each row as ``np.correlate``'s dot product at lag d does, so every
    value is bit-identical to it.
    """
    step = y.strides[0]
    windows = np.lib.stride_tricks.as_strided(
        y, shape=(y.size - references.shape[-1] + 1, references.shape[-1]),
        strides=(step, step), writeable=False)
    return np.vecdot(references[:, None, :], windows[lags][None])


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
        # Sample offset of each preamble symbol from symbol 0.
        self._symbol_steps = self.shaper.sps * np.arange(
            len(self.preamble), dtype=float)
        self._detect_refs: dict[float, np.ndarray] = {}
        # Detection's correlation bound (see _correlation_bound): the
        # waveform's two segments as (start, samples), and |w[n]| |n - c_s|
        # with c_s the centre of n's segment.
        size = self._waveform.size
        half = size // 2
        self._segments = [(a, self._waveform[a:b])
                          for a, b in ((0, half), (half, size)) if a < b]
        n = np.arange(size, dtype=float)
        centres = np.where(n < half, (half - 1) / 2.0,
                           (half + size - 1) / 2.0)
        self._spread = np.abs(self._waveform) * np.abs(n - centres)

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
        return np.correlate(y, self._detect_reference(coarse_freq),
                            mode="valid")

    def _detect_reference(self, coarse_freq: float) -> np.ndarray:
        """The preamble waveform shifted by *coarse_freq*, cached."""
        n = np.arange(self._waveform.size)
        return self._reference(
            self._detect_refs, coarse_freq,
            lambda f: self._waveform * np.exp(2j * np.pi * f * n))

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
               ) -> list[CorrelationPeak] | list[list[CorrelationPeak]]:
        """All packet starts whose normalized correlation clears threshold.

        Returns peaks sorted by position; ``position`` is the integer part
        of symbol 0's pulse-centre sample index. Detections closer than
        :data:`MIN_SEPARATION` samples merge into the strongest one.

        *coarse_freq* may also be a sequence of candidate offsets (the
        AP's client table, §4.2.1): the result is then one peak list per
        candidate, in order, each identical to a scalar call.
        """
        y = np.asarray(signal, dtype=complex).ravel()
        scalar, freqs = self._candidates(coarse_freq)
        found = [[self.peak(hit) for hit in hits]
                 for hits in self.hits(y, freqs, max_peaks)]
        return found[0] if scalar else found

    def peak(self, hit: tuple[int, float, complex]) -> CorrelationPeak:
        """The :class:`CorrelationPeak` of one ``(lag, score, value)``
        hit from :meth:`hits`."""
        lag, score, value = hit
        return CorrelationPeak(position=lag + self.shaper.delay,
                               value=value, score=score)

    def hits(self, y: np.ndarray, freqs: list, max_peaks: int | None = None,
             ) -> list[list[tuple[int, float, complex]]]:
        """:meth:`detect`'s peaks as ``(lag, score, value)`` tuples, one
        list per candidate in *freqs*, in one pass over all of them.

        The correlation of every candidate is bounded at every lag by
        one frequency-independent pass (:meth:`_correlation_bound`);
        only the lags whose bound can reach the threshold are correlated,
        each with the same dot product ``np.correlate`` takes there, so
        the values, scores and selected peaks are exactly those of one
        full ``np.correlate`` per candidate.
        """
        if not freqs:
            return []
        if y.size < self._waveform.size:
            raise CollisionDetectError(
                "signal shorter than the preamble waveform")
        denom = self._score_denominator(y)
        # Keep every lag whose bound can reach the threshold (a NaN one
        # too); the guard covers the rounding of bound and correlation.
        lags = np.flatnonzero(~(self._correlation_bound(y, freqs)
                                < (self.threshold - 1e-9) * denom))
        values = correlate_at(
            y, np.array([self._detect_reference(f) for f in freqs]), lags)
        scores = np.abs(values) / denom[lags]
        # Row-major, so each candidate's above-threshold lags come out
        # in ascending order, as a full-length selection finds them.
        rows, cols = np.nonzero(scores >= self.threshold)
        ends = np.cumsum(np.bincount(rows, minlength=len(freqs))).tolist()
        above_lags = lags[cols].tolist()
        above_scores = scores[rows, cols]
        above_values = values[rows, cols].tolist()
        found = []
        start = 0
        for end in ends:
            found.append(self._select(
                above_lags[start:end], above_scores[start:end],
                above_values[start:end], denom.size, max_peaks))
            start = end
        return found

    def _correlation_bound(self, y: np.ndarray, freqs: list) -> np.ndarray:
        """An upper bound, at every lag, on |correlation| for every
        candidate in *freqs*, from one frequency-independent pass.

        With the waveform w split into segments s centred at c_s, and
        |e^{-jx} - 1| <= |x|, every candidate f satisfies
        ``|corr_f[d]| <= sum_s |A_s[d]| + |2 pi f| R[d]``, where A_s
        correlates the capture with segment s and R correlates |y| with
        |w[n]| |n - c_s|. Computed, the bound and each correlation round
        by at most about L * eps * sum|y||w| <= L * eps * denom.
        """
        size = y.size - self._waveform.size + 1
        bound = np.correlate(np.abs(y), self._spread, mode="valid")
        bound *= 2.0 * np.pi * np.max(np.abs(freqs))
        for start, segment in self._segments:
            bound += np.abs(np.correlate(
                y[start:start + size + segment.size - 1], segment,
                mode="valid"))
        return bound

    @staticmethod
    def _select(lags: list[int], scores: np.ndarray, values: list[complex],
                size: int, max_peaks: int | None
                ) -> list[tuple[int, float, complex]]:
        """Greedy strongest-first selection with merge suppression over
        the above-threshold lags (ascending) of *size* lags in all,
        sorted by lag. The order is ``np.argsort`` of the same negated
        scores a full-length selection sorts, so ties break alike."""
        if not lags:
            return []
        order = np.argsort(-scores).tolist()
        score_list = scores.tolist()
        used = np.zeros(size, dtype=bool)
        hits = []
        for i in order:
            lag = lags[i]
            if used[lag]:
                continue
            used[max(0, lag - MIN_SEPARATION):
                 min(size, lag + MIN_SEPARATION + 1)] = True
            hits.append((lag, score_list[i], values[i]))
            if max_peaks is not None and len(hits) >= max_peaks:
                break
        hits.sort()
        return hits

    # ------------------------------------------------------------------
    # Acquisition (§4.2.4)
    # ------------------------------------------------------------------
    def acquire(self, signal, position: int, *, coarse_freq=0.0,
                sampled: dict | None = None,
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
        grid is sampled once, every candidate is scored against it in one
        pass, and the result is one estimate per candidate, in order, each
        identical to a scalar call.

        *sampled*, when given, keeps the matched-filter preamble outputs
        taken on this same *signal*, keyed by start sample, across calls:
        acquire reads it and adds what it samples, so a capture that is
        acquired again (the standard decode and then the collision path,
        later decode attempts) never samples the same start twice.

        The frequency offset is the candidate itself: the caller holds a
        per-client coarse estimate (the paper's client table, §4.2.1 /
        §4.2.4b), and the decision-directed tracker absorbs the residual.
        The SNR is measured against the known floor :data:`NOISE_POWER`.
        """
        y = np.asarray(signal, dtype=complex).ravel()
        scalar, freqs = self._candidates(coarse_freq)
        # Matched-filter outputs by start: a refined start that lands on
        # a grid point, or repeats another candidate's, reuses them.
        sampled = {} if sampled is None else sampled
        grid = self._outputs(
            y, [float(position + d) for d in _GRID_OFFSETS], sampled)
        mus = []
        for best, scores in self._grid_peaks(grid, freqs):
            frac = 0.0
            if 0 < best < len(_GRID_OFFSETS) - 1:
                left, mid, right = scores[best - 1:best + 2]
                denom = left - 2.0 * mid + right
                if denom != 0:
                    frac = min(max(0.5 * (left - right) / denom, -1.0), 1.0)
            mus.append(_GRID_OFFSETS[best] + frac * _GRID_STEP)
        starts = [float(position + mu) for mu in mus]
        estimates = self._fit(self._outputs(y, starts, sampled), starts,
                              mus, freqs)
        return estimates[0] if scalar else estimates

    def _outputs(self, y: np.ndarray, starts: list[float],
                 sampled: dict) -> list[np.ndarray]:
        """The preamble's matched-filter outputs at each of *starts*:
        from *sampled* where it has them, the rest sampled in one pass
        (in order, as one ``sample`` call each would) and added to it."""
        missing = [start for start in dict.fromkeys(starts)
                   if start not in sampled]
        if missing:
            sampled.update(zip(missing, self._sampler.sample_many(
                y, missing, len(self.preamble))))
        return [sampled[start] for start in starts]

    def _score_reference(self, coarse_freq: float) -> np.ndarray:
        # The exp(-2jπ f start) phase common to every term has unit
        # modulus and cannot change a score, so the score reference
        # depends on the frequency only.
        k = np.arange(len(self.preamble))
        return self.preamble.symbols * np.exp(
            2j * np.pi * coarse_freq * self.shaper.sps * k)

    def _grid_peaks(self, grid: list[np.ndarray],
                    freqs: list) -> list[tuple[int, list[float]]]:
        """Per candidate: the grid index of the largest |correlation|
        with its score reference, and the scores, each one ``np.vdot``,
        at that index and its two neighbours (the parabola's points).

        With more than ``_EXACT_ROWS_UP_TO`` candidates, one product
        scores every grid point against every candidate. It sums in
        another order than ``np.vdot``, so it only picks each
        candidate's argmax; the values come from ``np.vdot``. Both
        roundings are far below ``_TIE_GUARD`` times the grid outputs'
        l1 norm, so a runner-up within that of the top, or a non-finite
        score, sends the whole row to ``np.vdot`` and ``np.argmax``.
        """
        references = [self._reference(self._score_refs, freq,
                                      self._score_reference)
                      for freq in freqs]
        size = len(grid)
        best = [0] * len(references)
        clear = [False] * len(references)
        if len(references) > _EXACT_ROWS_UP_TO:
            outputs = np.array(grid)
            approx = np.abs(np.conj(np.array(references)) @ outputs.T)
            best = approx.argmax(axis=1).tolist()
            ranked = np.sort(approx, axis=1)
            guard = _TIE_GUARD * np.abs(outputs).sum()
            clear = (ranked[:, -1] - ranked[:, -2] > guard).tolist()
        peaks = []
        for reference, index, is_clear in zip(references, best, clear):
            if is_clear:
                scores = [0.0] * size
                if 0 < index < size - 1:
                    for g in (index - 1, index, index + 1):
                        scores[g] = abs(complex(np.vdot(reference, grid[g])))
            else:
                scores = [abs(complex(np.vdot(reference, symbols)))
                          for symbols in grid]
                index = int(np.argmax(scores))
            peaks.append((index, scores))
        return peaks

    def _fit(self, aligned: list[np.ndarray], starts: list[float],
             mus: list[float], freqs: list) -> list[ChannelEstimate]:
        """Gain and SNR per candidate frequency from the preamble's
        matched-filter outputs at its refined start. The gain
        references of all candidates are built in one pass; each gain
        is one ``np.vdot``."""
        if not freqs:
            return []
        length = len(self.preamble)
        sample_pos = np.array(starts)[:, None] + self._symbol_steps
        # Each candidate's 2jπf is the scalar product a one-candidate
        # fit takes, so every row matches it exactly.
        rates = np.array([2j * np.pi * freq for freq in freqs])
        references = self.preamble.symbols * np.exp(
            rates[:, None] * sample_pos)
        estimates = []
        for reference, outputs, freq, mu in zip(references, aligned, freqs,
                                                mus):
            gain = np.vdot(reference, outputs) / length
            power = abs(gain) ** 2
            snr_db = 10.0 * np.log10(max(power / NOISE_POWER, 1e-12))
            estimates.append(ChannelEstimate(
                gain=complex(gain),
                freq_offset=float(freq),
                sampling_offset=float(mu),
                snr_db=float(snr_db),
            ))
        return estimates
