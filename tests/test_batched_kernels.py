"""Trial-axis batched kernels against their scalar-loop oracles.

The batched kernels in ``repro.phy.batch`` / the batched synchronizer
methods did not replace scalar code — the loop over lanes IS their
baseline, preserved in ``tests/kernel_oracles.py`` as
``batched_*_loop``. These tests pin the equivalence contract that makes
the batch axis safe (and batch-size-invariant):

- decisions/decoded bits are **identical** to the per-lane scalar path;
- float internals (soft symbols, tracked phases, channel estimates)
  agree to ~1e-9 — the batched paths evaluate the same recurrences in a
  different association order;
- a lane's outputs depend only on its own samples: batch-of-N equals
  per-lane batch-of-1, and batch-of-1 equals the unbatched scalar call.

``repro.phy.medium.synthesize_batch`` is held to a stricter standard:
sample-identical to per-trial ``synthesize`` (same rng, same draw
order), because per-trial seed streams must not depend on batching.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.phy.batch import (
    BatchedMatchedSampler,
    BatchedPhaseTracker,
    stack_rows,
    wrap_pi,
)
from repro.phy.channel import ChannelParams
from repro.phy.coding.convolutional import ConvolutionalCode
from repro.phy.constellation import BPSK, QPSK
from repro.phy.frame import Frame
from repro.phy.medium import Transmission, synthesize, synthesize_batch
from repro.phy.preamble import default_preamble
from repro.phy.pulse import PulseShaper
from repro.phy.sync import Synchronizer
from repro.utils.bits import random_bits

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


class TestStackRows:
    def test_ragged_padding_and_lengths(self):
        rows = [np.arange(3) + 1j, np.arange(5), np.arange(1)]
        out, lengths = stack_rows(rows)
        assert out.shape == (3, 5)
        assert np.array_equal(lengths, [3, 5, 1])
        for i, row in enumerate(rows):
            assert np.array_equal(out[i, :lengths[i]], np.asarray(row))
            assert np.all(out[i, lengths[i]:] == 0)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            stack_rows([])


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


class TestBatchedViterbi:
    def test_matches_scalar_loop_exactly(self, rng):
        code = ConvolutionalCode()
        bits = np.stack([random_bits(96, rng) for _ in range(7)])
        coded = np.stack([code.encode(row) for row in bits])
        soft = (1.0 - 2.0 * coded.astype(float)
                + rng.normal(scale=0.45, size=coded.shape))
        for terminated in (True, False):
            fast = code.decode_soft_batch(soft, terminated=terminated)
            ref = reference.batched_viterbi_loop(code, soft,
                                                 terminated=terminated)
            assert np.array_equal(fast, ref)

    def test_batch_of_one_equals_unbatched(self, rng):
        code = ConvolutionalCode()
        coded = code.encode(random_bits(120, rng))
        soft = (1.0 - 2.0 * coded.astype(float)
                + rng.normal(scale=0.4, size=coded.size))
        assert np.array_equal(code.decode_soft_batch(soft[None, :])[0],
                              code.decode_soft(soft))

    def test_empty_and_validation(self):
        code = ConvolutionalCode()
        assert code.decode_soft_batch(
            np.zeros((3, 0))).shape == (3, 0)
        with pytest.raises(ConfigurationError):
            code.decode_soft_batch(np.zeros(8))
        with pytest.raises(ConfigurationError):
            code.decode_soft_batch(np.zeros((2, 7)))


def _equal_length_captures(preamble, shaper, seeds, payload_bits=80):
    """One single-sender capture per seed, all with identical geometry."""
    captures = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        frame = Frame.make(random_bits(payload_bits, rng), src=1,
                           preamble=preamble)
        params = ChannelParams(
            gain=1.2 * np.exp(1j * rng.uniform(0, 2 * np.pi)),
            freq_offset=float(rng.uniform(-3e-3, 3e-3)),
            sampling_offset=float(rng.uniform(0, 1)))
        captures.append(synthesize(
            [Transmission.from_symbols(frame.symbols, shaper, params,
                                       24, "A")],
            0.05, rng, leading=8, tail=32))
    return captures


class TestBatchedSynchronizer:
    @pytest.fixture
    def sync(self, preamble, shaper):
        return Synchronizer(preamble, shaper, threshold=0.3)

    @pytest.fixture
    def lanes(self, preamble, shaper):
        captures = _equal_length_captures(preamble, shaper,
                                          range(100, 106))
        return np.stack([c.samples for c in captures]), captures

    def test_correlate_batch_matches_scalar(self, sync, lanes):
        stacked, _ = lanes
        freqs = np.linspace(-2e-3, 2e-3, stacked.shape[0])
        batch = sync.correlate_batch(stacked, coarse_freqs=freqs)
        scale = np.abs(batch).max()
        for lane in range(stacked.shape[0]):
            scalar = sync.correlate(stacked[lane], float(freqs[lane]))
            np.testing.assert_allclose(batch[lane], scalar,
                                       atol=TOL * scale, rtol=0)

    def test_scores_batch_matches_scalar(self, sync, lanes):
        stacked, _ = lanes
        batch = sync.correlation_scores_batch(stacked)
        for lane in range(stacked.shape[0]):
            scalar = sync.correlation_scores(stacked[lane])
            np.testing.assert_allclose(batch[lane], scalar, atol=1e-7,
                                       rtol=0)

    def test_detect_batch_peaks_identical(self, sync, lanes):
        stacked, _ = lanes
        batch = sync.detect_batch(stacked)
        for lane in range(stacked.shape[0]):
            scalar = sync.detect(stacked[lane])
            assert [p.position for p in batch[lane]] \
                == [p.position for p in scalar]
            for got, ref in zip(batch[lane], scalar):
                assert got.score == pytest.approx(ref.score, abs=TOL)
                assert got.value == pytest.approx(ref.value, abs=TOL)

    @pytest.mark.parametrize("refine_freq", [False, True])
    def test_acquire_batch_matches_scalar(self, sync, lanes, refine_freq):
        stacked, captures = lanes
        positions = np.array([c.transmissions[0].symbol0
                              for c in captures])
        estimates = sync.acquire_batch(
            stacked, positions, noise_power=0.05,
            refine_freq=refine_freq)
        for lane, est in enumerate(estimates):
            ref = sync.acquire(stacked[lane], int(positions[lane]),
                               noise_power=0.05,
                               refine_freq=refine_freq)
            assert est.sampling_offset == pytest.approx(
                ref.sampling_offset, abs=TOL)
            assert est.freq_offset == pytest.approx(ref.freq_offset,
                                                    abs=1e-12)
            assert est.gain == pytest.approx(ref.gain, abs=TOL)
            assert est.snr_db == pytest.approx(ref.snr_db, abs=1e-6)

    def test_single_lane_promotion(self, sync, lanes):
        stacked, _ = lanes
        promoted = sync.correlate_batch(stacked[0])
        assert promoted.shape[0] == 1
        with pytest.raises(ConfigurationError):
            sync.correlate_batch(np.zeros((2, 3, 4), complex))


class TestSynthesizeBatch:
    def _trial(self, preamble, shaper, seed, n_bits=64, offset=40):
        rng = np.random.default_rng(seed)
        frame = Frame.make(random_bits(n_bits, rng), src=1,
                           preamble=preamble)
        params = ChannelParams(
            gain=1.0 + 0.3j,
            freq_offset=1e-3,
            sampling_offset=0.3,
            phase_noise_std=1e-3)
        return [Transmission.from_symbols(frame.symbols, shaper, params,
                                          offset, "A")]

    def test_sample_identical_to_scalar(self, preamble, shaper):
        seeds = [11, 12, 13]
        batch = [self._trial(preamble, shaper, s) for s in seeds]
        stacked, captures = synthesize_batch(
            batch, 0.5, [np.random.default_rng(1000 + s) for s in seeds],
            tail=24, leading=8)
        for i, seed in enumerate(seeds):
            scalar = synthesize(self._trial(preamble, shaper, seed), 0.5,
                                np.random.default_rng(1000 + seed),
                                tail=24, leading=8)
            assert np.array_equal(captures[i].samples, scalar.samples)
            assert np.array_equal(captures[i].clean_components[0],
                                  scalar.clean_components[0])
            assert captures[i].transmissions[0].symbol0 \
                == scalar.transmissions[0].symbol0

    def test_rows_are_zero_copy_views(self, preamble, shaper):
        batch = [self._trial(preamble, shaper, s) for s in (1, 2)]
        stacked, captures = synthesize_batch(
            batch, 0.1, [np.random.default_rng(s) for s in (1, 2)])
        for capture in captures:
            assert capture.samples.base is stacked

    def test_geometry_validation(self, preamble, shaper):
        base = self._trial(preamble, shaper, 1)
        with pytest.raises(ConfigurationError):
            synthesize_batch([], 0.1, [])
        with pytest.raises(ConfigurationError):
            synthesize_batch([base], 0.1, [])  # rng count mismatch
        shifted = self._trial(preamble, shaper, 2, offset=41)
        with pytest.raises(ConfigurationError):
            synthesize_batch([base, shifted], 0.1,
                             [np.random.default_rng(s) for s in (1, 2)])
        longer = self._trial(preamble, shaper, 2, n_bits=80)
        with pytest.raises(ConfigurationError):
            synthesize_batch([base, longer], 0.1,
                             [np.random.default_rng(s) for s in (1, 2)])
        two_tx = base + self._trial(preamble, shaper, 3, offset=90)
        with pytest.raises(ConfigurationError):
            synthesize_batch([base, two_tx], 0.1,
                             [np.random.default_rng(s) for s in (1, 2)])
