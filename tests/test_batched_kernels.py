"""Trial-axis batched kernels against their scalar-loop oracles.

The batched kernels in ``repro.phy.batch`` did not replace scalar code —
the loop over lanes IS their baseline, preserved in
``tests/kernel_oracles.py`` as ``batched_*_loop``. These tests pin the
equivalence contract that makes the batch axis safe (and
batch-size-invariant):

- decisions are **identical** to the per-lane scalar path;
- float internals (soft symbols, tracked phases) agree to ~1e-9 — the
  batched paths evaluate the same recurrences in a different
  association order;
- a lane's outputs depend only on its own samples: batch-of-N equals
  per-lane batch-of-1.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.phy.batch import BatchedMatchedSampler, BatchedPhaseTracker, wrap_pi
from repro.phy.constellation import BPSK, QPSK

import kernel_oracles as reference

TOL = 1e-9


def _lane_waveforms(shaper, rng, n_lanes, n_symbols):
    """Per-lane BPSK waveforms embedded in one zero-margined buffer."""
    pad = shaper.delay + shaper.taps.size
    waves = [shaper.shape(BPSK.modulate(rng.integers(0, 2, n_symbols)))
             for _ in range(n_lanes)]
    padded = np.zeros((n_lanes, 2 * pad + waves[0].size), dtype=complex)
    for i, w in enumerate(waves):
        padded[i, pad:pad + w.size] = w
    return padded, pad


class TestWrapPi:
    @given(st.floats(-9.0, 9.0))
    @settings(max_examples=60)
    def test_matches_math_remainder(self, x):
        assert wrap_pi(x) == math.remainder(x, 2.0 * math.pi)


class TestBatchedMatchedSampler:
    def test_matches_scalar_loop(self, shaper, rng):
        padded, origin = _lane_waveforms(shaper, rng, 6, 160)
        starts = shaper.delay + rng.uniform(-0.5, 0.5, 6)
        count = 150
        fast = BatchedMatchedSampler(shaper).sample(
            padded, origin, starts, count)
        ref = reference.batched_matched_sampler_loop(
            shaper, padded, origin, starts, count)
        np.testing.assert_allclose(fast, ref, atol=1e-12, rtol=0)

    def test_batch_of_one_matches_batch_of_n(self, shaper, rng):
        padded, origin = _lane_waveforms(shaper, rng, 5, 96)
        starts = shaper.delay + rng.uniform(-0.5, 0.5, 5)
        batched = BatchedMatchedSampler(shaper)
        full = batched.sample(padded, origin, starts, 90)
        for lane in range(5):
            single = batched.sample(padded[lane:lane + 1], origin,
                                    starts[lane:lane + 1], 90)
            np.testing.assert_array_equal(full[lane], single[0])

    def test_window_escape_rejected(self, shaper, rng):
        padded, origin = _lane_waveforms(shaper, rng, 2, 32)
        starts = np.full(2, float(shaper.delay))
        with pytest.raises(ConfigurationError):
            BatchedMatchedSampler(shaper).sample(
                padded, origin, starts, 10_000)

    def test_zero_count(self, shaper):
        out = BatchedMatchedSampler(shaper).sample(
            np.zeros((3, 200), complex), 50, np.zeros(3), 0)
        assert out.shape == (3, 0)


def _rotated_lanes(rng, n_lanes, length, constellation=BPSK):
    bits = rng.integers(0, 2,
                        (n_lanes, length * constellation.bits_per_symbol))
    clean = np.stack([constellation.modulate(row) for row in bits])
    phase0 = rng.uniform(-0.8, 0.8, n_lanes)
    freq = rng.uniform(-2e-3, 2e-3, n_lanes)
    ramp = phase0[:, None] + freq[:, None] * np.arange(length)
    noisy = clean * np.exp(1j * ramp) + 0.05 * (
        rng.normal(size=(n_lanes, length))
        + 1j * rng.normal(size=(n_lanes, length)))
    return clean, noisy


class TestBatchedPhaseTracker:
    def _make(self, n_lanes, rng, enabled=True):
        return BatchedPhaseTracker(
            kp=0.08, ki=0.004,
            phase=rng.uniform(-0.3, 0.3, n_lanes),
            freq=rng.uniform(-1e-3, 1e-3, n_lanes),
            enabled=enabled)

    @pytest.mark.parametrize("mode", ["decision", "data_aided", "coast"])
    def test_matches_scalar_loop(self, rng, mode):
        clean, noisy = _rotated_lanes(rng, 8, 220)
        batched = self._make(8, rng, enabled=mode != "coast")
        phase0 = batched.phase.copy()
        freq0 = batched.freq.copy()
        known = clean if mode == "data_aided" else None
        soft, dec, phases = batched.process(noisy, BPSK, known=known)
        if mode == "coast":
            # The disabled tracker is a closed-form ramp; reproduce it.
            ramp = phase0[:, None] + freq0[:, None] * np.arange(220)
            np.testing.assert_allclose(phases, ramp, atol=TOL, rtol=0)
            return
        r_soft, r_dec, r_phases = reference.batched_phase_tracker_loop(
            0.08, 0.004, phase0, freq0, noisy, BPSK, known=known)
        np.testing.assert_array_equal(dec, r_dec)
        np.testing.assert_allclose(phases, r_phases, atol=TOL, rtol=0)
        np.testing.assert_allclose(soft, r_soft, atol=TOL, rtol=0)

    def test_final_state_matches_scalar_loop(self, rng):
        clean, noisy = _rotated_lanes(rng, 6, 180)
        batched = self._make(6, rng)
        phase0 = batched.phase.copy()
        freq0 = batched.freq.copy()
        batched.process(noisy, BPSK)
        from repro.phy.tracking import PhaseTracker
        for lane in range(6):
            tracker = PhaseTracker(kp=0.08, ki=0.004,
                                   phase=float(phase0[lane]),
                                   freq=float(freq0[lane]))
            tracker.process(noisy[lane], BPSK)
            assert batched.phase[lane] == pytest.approx(tracker.phase,
                                                        abs=TOL)
            assert batched.freq[lane] == pytest.approx(tracker.freq,
                                                       abs=TOL)

    def test_non_bpsk_replays_scalar_exactly(self, rng):
        """Non-BPSK decision-directed lanes take the scalar-replay path;
        outputs must still equal the per-lane loop bit-for-bit."""
        clean, noisy = _rotated_lanes(rng, 4, 120, QPSK)
        batched = self._make(4, rng)
        phase0 = batched.phase.copy()
        freq0 = batched.freq.copy()
        soft, dec, phases = batched.process(noisy, QPSK)
        r_soft, r_dec, r_phases = reference.batched_phase_tracker_loop(
            0.08, 0.004, phase0, freq0, noisy, QPSK)
        np.testing.assert_array_equal(dec, r_dec)
        np.testing.assert_allclose(phases, r_phases, atol=1e-12, rtol=0)

    @given(st.integers(0, 2**16), st.integers(1, 7))
    @settings(max_examples=12)
    def test_batch_of_n_equals_singles(self, seed, n_lanes):
        """Tracked phases of a lane are independent of its batch mates."""
        rng = np.random.default_rng(seed)
        _, noisy = _rotated_lanes(rng, n_lanes, 150)
        batched = self._make(n_lanes, np.random.default_rng(seed + 1))
        phase0 = batched.phase.copy()
        freq0 = batched.freq.copy()
        soft, dec, phases = batched.process(noisy, BPSK)
        for lane in range(n_lanes):
            single = BatchedPhaseTracker(
                kp=0.08, ki=0.004, phase=phase0[lane:lane + 1],
                freq=freq0[lane:lane + 1])
            s_soft, s_dec, s_phases = single.process(
                noisy[lane:lane + 1], BPSK)
            np.testing.assert_array_equal(dec[lane], s_dec[0])
            np.testing.assert_allclose(phases[lane], s_phases[0],
                                       atol=TOL, rtol=0)
            assert batched.phase[lane] == pytest.approx(
                single.phase[0], abs=TOL)

    def test_shape_validation(self, rng):
        batched = self._make(3, rng)
        with pytest.raises(ConfigurationError):
            batched.process(np.zeros((2, 10), complex), BPSK)
        with pytest.raises(ConfigurationError):
            batched.process(np.zeros((3, 10), complex), BPSK,
                            known=np.zeros((3, 9), complex))
        with pytest.raises(ConfigurationError):
            batched.advance(-1)
