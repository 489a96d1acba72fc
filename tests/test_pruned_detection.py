"""One-pass pruned detection equals one full correlation per candidate.

``Synchronizer.detect`` bounds every client-table candidate's preamble
correlation at every lag in one frequency-independent pass, correlates
only the lags whose bound can reach the threshold, and selects each
candidate's peaks from that sparse set. These tests hold scalar and list
``detect`` and ``CollisionDetector.find_packets`` to exact equality with
the per-frequency loop it replaced (``kernel_oracles``), check the bound
itself, and pin the ``np.vecdot`` window product to ``np.correlate`` bit
for bit, so a numpy change that breaks that equality fails here.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.phy.preamble import default_preamble
from repro.phy.pulse import PulseShaper
from repro.phy.sync import Synchronizer, correlate_at
from repro.zigzag.detect import CollisionDetector

from kernel_oracles import detector_find_packets, synchronizer_detect

PREAMBLE = default_preamble(32)
SHAPER = PulseShaper()
WAVE = SHAPER.shape(PREAMBLE.symbols)
L = WAVE.size


@st.composite
def cases(draw):
    """A capture and a candidate list.

    The list holds K = 1-16 offsets drawn from a small pool with |f| up
    to 2e-2 cycles/sample, so offsets repeat and come unsorted. The
    capture is noise plus 0-4 preambles anywhere (edges included), each
    near a pool offset, with N = L allowed and all-zero stretches. One
    scale in 1e-8..1e8 multiplies everything, and preamble amplitudes
    spread over 1e-8..1e8 of the noise.
    """
    pool = draw(st.lists(st.floats(-2e-2, 2e-2), min_size=1, max_size=5))
    freqs = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # About one capture in ten is exactly one waveform long.
    n = L + max(draw(st.sampled_from(range(600, -61, -1))), 0)
    scale = 10.0 ** draw(st.sampled_from([-8.0, 0.0, 8.0]))
    y = draw(st.sampled_from([0.0, 1.0])) * (
        rng.standard_normal(n) + 1j * rng.standard_normal(n))
    for _ in range(draw(st.integers(0, 4))):
        start = draw(st.integers(-L // 2, n - L // 2))
        amplitude = 10.0 ** draw(st.floats(0.3, 2.0) | st.floats(-8.0, 8.0))
        freq = draw(st.sampled_from(pool)) + draw(st.floats(-5e-4, 5e-4))
        wave = amplitude * WAVE * np.exp(2j * np.pi * freq * np.arange(L))
        index = start + np.arange(L)
        inside = (index >= 0) & (index < n)
        y[index[inside]] += wave[inside]
    for _ in range(draw(st.integers(0, 2))):
        lo = draw(st.integers(0, n - 1))
        y[lo:lo + draw(st.integers(1, 2 * L))] = 0.0
    return scale * y, freqs


class TestDetectEqualsPerFrequencyLoop:
    @given(cases(), st.sampled_from([None, 1, 2, 3]),
           st.sampled_from([0.3, 0.42, 0.6]))
    @settings(max_examples=150, deadline=None)
    def test_detect_and_find_packets_equal_oracle(self, case, max_peaks,
                                                  beta):
        y, freqs = case
        oracle = Synchronizer(PREAMBLE, SHAPER, threshold=beta)
        sync = Synchronizer(PREAMBLE, SHAPER, threshold=beta)
        expected = synchronizer_detect(oracle, y, coarse_freq=freqs,
                                       max_peaks=max_peaks)
        assert sync.detect(y, coarse_freq=freqs,
                           max_peaks=max_peaks) == expected
        assert sync.detect(y, coarse_freq=freqs[0],
                           max_peaks=max_peaks) == expected[0]
        detector = CollisionDetector(PREAMBLE, SHAPER, beta=beta)
        assert detector.find_packets(y, freqs, max_peaks=max_peaks) == \
            detector_find_packets(oracle, y, freqs, max_peaks)

    @pytest.mark.parametrize("separation", [-300, -1, 0, 1, 40])
    def test_min_separation_equals_oracle(self, separation):
        """Two packets *separation* samples apart around the
        MIN_SEPARATION merge window: far before, adjacent on either
        side, coincident, and beyond it, plus noise lags that the
        window suppresses."""
        rng = np.random.default_rng(7)
        y = rng.standard_normal(500) + 1j * rng.standard_normal(500)
        y[310:310 + L] += 4 * WAVE
        y[310 + separation:310 + separation + L] += 3 * WAVE
        sync = Synchronizer(PREAMBLE, SHAPER, threshold=0.2)
        assert sync.detect(y, [0.0, 1e-3]) == \
            synchronizer_detect(sync, y, [0.0, 1e-3])

    @pytest.mark.parametrize("max_peaks", [None, 1, 3])
    def test_tied_scores_break_like_oracle(self, max_peaks):
        """A constant capture scores every lag the same: which lags are
        taken is decided by the sort's tie order alone."""
        y = np.full(L + 120, 1.0 + 0.5j)
        probe = Synchronizer(PREAMBLE, SHAPER)
        score = probe.correlation_scores(y)[0]
        sync = Synchronizer(PREAMBLE, SHAPER, threshold=0.5 * score)
        found = sync.detect(y, [0.0, 0.0], max_peaks=max_peaks)
        assert found == synchronizer_detect(sync, y, [0.0, 0.0],
                                            max_peaks=max_peaks)
        assert found[0]

    def test_empty_candidate_list_finds_nothing(self):
        sync = Synchronizer(PREAMBLE, SHAPER)
        assert sync.detect(np.zeros(3, complex), coarse_freq=[]) == []
        assert CollisionDetector(PREAMBLE, SHAPER).find_packets(
            np.zeros(3, complex), ()) == []

    def test_nan_capture_equals_oracle(self):
        y = np.ones(L + 50, complex)
        y[60] = np.nan
        sync = Synchronizer(PREAMBLE, SHAPER, threshold=0.4)
        assert sync.detect(y, [0.0, 2e-3]) == \
            synchronizer_detect(sync, y, [0.0, 2e-3])


class TestCorrelationBound:
    @given(cases())
    @settings(max_examples=100, deadline=None)
    def test_bound_covers_every_candidate_at_every_lag(self, case):
        """The pruning rule drops a lag when its bound is under
        (beta - 1e-9) * denom; that is safe as long as no computed
        |correlation| exceeds the computed bound by 1e-9 * denom."""
        y, freqs = case
        sync = Synchronizer(PREAMBLE, SHAPER)
        bound = sync._correlation_bound(y, freqs)
        slack = 1e-9 * sync._score_denominator(y)
        for freq in freqs:
            corr = np.abs(sync.correlate(y, freq))
            assert np.all(corr <= bound + slack)

    def test_pruning_skips_most_lags_of_a_noisy_capture(self):
        rng = np.random.default_rng(5)
        y = rng.standard_normal(2000) + 1j * rng.standard_normal(2000)
        y[500:500 + L] += 3 * WAVE
        sync = Synchronizer(PREAMBLE, SHAPER, threshold=0.42)
        bound = sync._correlation_bound(y, [-4e-3, 0.0, 4e-3])
        kept = ~(bound < (0.42 - 1e-9) * sync._score_denominator(y))
        assert kept.mean() < 0.5
        assert kept[500]


class TestCorrelateAtIsNpCorrelate:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 200),
           st.integers(0, 300), st.integers(1, 5))
    @settings(max_examples=300, deadline=None)
    def test_bitwise_equal(self, seed, length, extra, k):
        rng = np.random.default_rng(seed)
        n = length + extra
        y = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) \
            * 10.0 ** rng.uniform(-8, 8, n)
        y[rng.integers(0, n, n // 3)] = 0
        refs = (rng.standard_normal((k, length))
                + 1j * rng.standard_normal((k, length))) \
            * 10.0 ** rng.uniform(-8, 8, (k, length))
        size = n - length + 1
        lags = np.sort(rng.choice(size, rng.integers(0, size + 1),
                                  replace=False))
        got = correlate_at(y, refs, lags)
        assert got.shape == (k, lags.size)
        for row, ref in zip(got, refs):
            want = np.correlate(y, ref, mode="valid")[lags]
            assert np.array_equal(row.view(np.uint64), want.view(np.uint64))
