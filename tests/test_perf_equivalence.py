"""Golden numerical-equivalence tests for the vectorized DSP hot paths.

PR "vectorize the symbol-rate hot paths" rewrote PhaseTracker,
MatchedSampler, the convolutional encode/Viterbi decode and
Reencoder.image for throughput. These tests
pin the contract that made that safe: on identical seeded inputs the
optimized kernels produce outputs **identical** to the pre-optimization
implementations — exact for the integer paths (encode, Viterbi decode),
within 1e-12 for the float paths.

The reference implementations are kept verbatim in
``tests/kernel_oracles.py``; the module-level ``_reference_*`` aliases
bind them for the assertions here. The end-to-end decode these kernels
feed is pinned by the golden fixtures (``tests/golden/``).
"""

import numpy as np
import pytest

from repro.phy.coding.convolutional import ConvolutionalCode
from repro.phy.constellation import BPSK, QAM16, QPSK
from repro.phy.estimation import ChannelEstimate
from repro.phy.pulse import DELAY, MatchedSampler
from repro.phy.tracking import PhaseTracker
from repro.utils.bits import random_bits

import kernel_oracles as reference

_reference_phase_tracker_process = reference.phase_tracker_process
_reference_matched_sampler_sample = reference.matched_sampler_sample
_reference_convolutional_encode = reference.convolutional_encode
_reference_convolutional_decode_soft = reference.convolutional_decode_soft
_reference_reencoder_image = reference.reencoder_image

TOL = 1e-12


def _noisy_symbols(constellation, n, rng, freq=1.5e-3, phase0=0.25,
                   noise=0.05):
    bits = rng.integers(0, 2, n * constellation.bits_per_symbol)
    clean = constellation.modulate(bits)
    y = clean * np.exp(1j * (phase0 + freq * np.arange(n)))
    y = y + noise * (rng.normal(size=n) + 1j * rng.normal(size=n))
    return clean, y


class TestPhaseTrackerEquivalence:
    @pytest.mark.parametrize("constellation", [BPSK, QPSK, QAM16],
                             ids=["bpsk", "qpsk", "qam16"])
    def test_decision_directed(self, constellation, rng):
        _, y = _noisy_symbols(constellation, 400, rng)
        fast = PhaseTracker()
        ref = PhaseTracker()
        f_corr, f_dec, f_ph = fast.process(y, constellation)
        r_corr, r_dec, r_ph = _reference_phase_tracker_process(
            ref, y, constellation)
        np.testing.assert_allclose(f_corr, r_corr, atol=TOL, rtol=0)
        np.testing.assert_allclose(f_dec, r_dec, atol=TOL, rtol=0)
        np.testing.assert_allclose(f_ph, r_ph, atol=TOL, rtol=0)
        assert fast.phase == pytest.approx(ref.phase, abs=TOL)
        assert fast.freq == pytest.approx(ref.freq, abs=TOL)
        assert fast._last_error == pytest.approx(ref._last_error, abs=TOL)

    def test_decision_directed_conjugate_constellation(self, rng):
        """The conjugated (backward-decoding) QPSK takes the generic
        slicer path; it must agree with the reference too."""
        conj_qpsk = QPSK.conjugate()
        _, y = _noisy_symbols(conj_qpsk, 300, rng)
        f_out = PhaseTracker().process(y, conj_qpsk)
        r_out = _reference_phase_tracker_process(PhaseTracker(), y,
                                                 conj_qpsk)
        for f, r in zip(f_out, r_out):
            np.testing.assert_allclose(f, r, atol=TOL, rtol=0)

    def test_data_aided(self, rng):
        clean, y = _noisy_symbols(BPSK, 256, rng, phase0=1.1)
        fast = PhaseTracker()
        ref = PhaseTracker()
        f_out = fast.process(y, BPSK, known=clean)
        r_out = _reference_phase_tracker_process(ref, y, BPSK, known=clean)
        for f, r in zip(f_out, r_out):
            np.testing.assert_allclose(f, r, atol=TOL, rtol=0)
        assert fast.phase == pytest.approx(ref.phase, abs=TOL)
        assert fast.freq == pytest.approx(ref.freq, abs=TOL)

    @pytest.mark.parametrize("n", [64, 400], ids=["scalar", "speculative"])
    def test_decision_directed_with_zero_samples(self, rng, n):
        """Exact-zero samples (a sampler window wholly inside capture-edge
        padding) must reproduce the reference's IEEE zero-sign error
        semantics on both the scalar and the speculate-verify BPSK paths."""
        _, y = _noisy_symbols(BPSK, n, rng, phase0=2.5)
        y[n // 4] = 0
        y[n // 2] = 0
        fast = PhaseTracker()
        ref = PhaseTracker()
        f_out = fast.process(y, BPSK)
        r_out = _reference_phase_tracker_process(ref, y, BPSK)
        for f, r in zip(f_out, r_out):
            np.testing.assert_allclose(f, r, atol=TOL, rtol=0)
        assert fast.phase == pytest.approx(ref.phase, abs=TOL)

    def test_data_aided_with_zero_samples(self, rng):
        """Exact-zero *received* samples in data-aided mode must keep the
        reference's IEEE zero-sign error semantics too."""
        clean, y = _noisy_symbols(BPSK, 64, rng, phase0=1.1)
        y[20] = 0
        y[45] = 0
        fast = PhaseTracker()
        ref = PhaseTracker()
        f_out = fast.process(y, BPSK, known=clean)
        r_out = _reference_phase_tracker_process(ref, y, BPSK, known=clean)
        for f, r in zip(f_out, r_out):
            np.testing.assert_allclose(f, r, atol=TOL, rtol=0)
        assert fast.phase == pytest.approx(ref.phase, abs=TOL)

    def test_data_aided_with_zero_reference_symbols(self, rng):
        """Zeros in `known` must coast (no update), exactly as before."""
        clean, y = _noisy_symbols(BPSK, 64, rng)
        known = clean.copy()
        known[10:20] = 0
        f_out = PhaseTracker().process(y, BPSK, known=known)
        r_out = _reference_phase_tracker_process(PhaseTracker(), y, BPSK,
                                                 known=known)
        for f, r in zip(f_out, r_out):
            np.testing.assert_allclose(f, r, atol=TOL, rtol=0)

    def test_disabled_closed_form(self, rng):
        _, y = _noisy_symbols(BPSK, 200, rng)
        fast = PhaseTracker(enabled=False, phase=0.4, freq=2e-3)
        ref = PhaseTracker(enabled=False, phase=0.4, freq=2e-3)
        f_out = fast.process(y, BPSK)
        r_out = _reference_phase_tracker_process(ref, y, BPSK)
        for f, r in zip(f_out, r_out):
            np.testing.assert_allclose(f, r, atol=1e-10, rtol=0)
        assert fast.phase == pytest.approx(ref.phase, abs=1e-10)

    def test_chunked_processing_matches_reference_chunked(self, rng):
        _, y = _noisy_symbols(BPSK, 300, rng)
        fast = PhaseTracker()
        ref = PhaseTracker()
        for a, b in ((0, 90), (90, 200), (200, 300)):
            f_corr, _, _ = fast.process(y[a:b], BPSK)
            r_corr, _, _ = _reference_phase_tracker_process(
                ref, y[a:b], BPSK)
            np.testing.assert_allclose(f_corr, r_corr, atol=TOL, rtol=0)


class TestMatchedSamplerEquivalence:
    @pytest.mark.parametrize("start_shift", [0.0, 0.37, -3.6, 11.25])
    def test_fractional_starts_and_padding(self, shaper, rng, start_shift):
        """Interior starts, negative starts (left padding) and starts
        running past the buffer (right padding) all agree."""
        d = BPSK.modulate(rng.integers(0, 2, 200))
        wave = shaper.shape(d)
        sampler = MatchedSampler()
        start = DELAY + start_shift
        count = 210  # deliberately overruns -> right padding
        fast = sampler.sample(wave, start, count)
        ref = _reference_matched_sampler_sample(sampler, wave, start, count)
        np.testing.assert_allclose(fast, ref, atol=TOL, rtol=0)

    def test_empty_and_zero_count(self):
        sampler = MatchedSampler()
        assert sampler.sample(np.zeros(50, complex), 3.0, 0).size == 0


class TestConvolutionalEquivalence:
    def test_encode_exact(self, rng):
        code = ConvolutionalCode()
        for n in (1, 7, 64, 501):
            bits = random_bits(n, rng)
            for terminate in (True, False):
                fast = code.encode(bits, terminate=terminate)
                ref = _reference_convolutional_encode(
                    code, bits, terminate=terminate)
                assert np.array_equal(fast, ref)

    def test_decode_soft_exact(self, rng):
        code = ConvolutionalCode()
        bits = random_bits(400, rng)
        coded = code.encode(bits)
        soft = (1.0 - 2.0 * coded.astype(float)
                + rng.normal(scale=0.45, size=coded.size))
        for terminated in (True, False):
            fast = code.decode_soft(soft, terminated=terminated)
            ref = _reference_convolutional_decode_soft(
                code, soft, terminated=terminated)
            assert np.array_equal(fast, ref)

    def test_decode_hard_exact(self, rng):
        code = ConvolutionalCode()
        bits = random_bits(120, rng)
        coded = code.encode(bits)
        corrupted = coded.copy()
        corrupted[::17] ^= 1
        fast = code.decode_hard(corrupted)
        ref = _reference_convolutional_decode_soft(
            code, 1.0 - 2.0 * corrupted.astype(float))
        assert np.array_equal(fast, ref)

    def test_nonstandard_code_exact(self, rng):
        """Equivalence holds for other (K, generators) too, including a
        rate-1/3 code."""
        code = ConvolutionalCode(generators=(0o5, 0o7, 0o6),
                                 constraint_length=3)
        bits = random_bits(97, rng)
        assert np.array_equal(
            code.encode(bits),
            _reference_convolutional_encode(code, bits))
        soft = (1.0 - 2.0 * code.encode(bits).astype(float)
                + rng.normal(scale=0.3, size=3 * (97 + 2)))
        assert np.array_equal(
            code.decode_soft(soft),
            _reference_convolutional_decode_soft(code, soft))


class TestReencoderEquivalence:
    def _make(self, with_isi=False):
        from repro.phy.isi import IsiFilter
        from repro.zigzag.reencode import Reencoder
        isi = None
        if with_isi:
            isi = IsiFilter(np.array([0.05 + 0.02j, 1.0, -0.08j]))
        estimate = ChannelEstimate(gain=1.3 * np.exp(0.7j),
                                   freq_offset=3e-4,
                                   sampling_offset=0.41, snr_db=12.0)
        return (Reencoder(estimate=estimate, start=37.41,
                          symbol_isi=isi),
                Reencoder(estimate=estimate, start=37.41,
                          symbol_isi=isi))

    @staticmethod
    def _placed(segment, base, origin, length):
        """Embed (segment, base) into a buffer anchored at *origin* — the
        representation subtraction actually consumes, invariant to how an
        implementation pads its segment."""
        out = np.zeros(length, dtype=complex)
        out[base - origin: base - origin + segment.size] = segment
        return out

    @pytest.mark.parametrize("with_isi", [False, True], ids=["flat", "isi"])
    def test_image_matches_reference(self, rng, with_isi):
        """Identical placed waveforms. (The optimized segment legitimately
        omits the reference layout's two identically-zero edge samples, so
        the comparison is base-aligned rather than raw.)"""
        fast_enc, ref_enc = self._make(with_isi)
        symbols = BPSK.modulate(rng.integers(0, 2, 96))
        for i0 in (0, 32, 64):
            chunk = symbols[i0:i0 + 32]
            f_seg, f_base = fast_enc.image(chunk, i0)
            r_seg, r_base = _reference_reencoder_image(ref_enc, chunk, i0)
            origin = min(f_base, r_base)
            length = max(f_base + f_seg.size, r_base + r_seg.size) - origin
            np.testing.assert_allclose(
                self._placed(f_seg, f_base, origin, length),
                self._placed(r_seg, r_base, origin, length),
                atol=TOL, rtol=0)

    def test_superposition_against_reference(self, rng):
        """Chunkwise images summed must equal the reference whole-packet
        image — the linearity property incremental subtraction needs."""
        fast_enc, ref_enc = self._make()
        symbols = BPSK.modulate(rng.integers(0, 2, 64))
        whole_seg, whole_base = _reference_reencoder_image(
            ref_enc, symbols, 0)
        total = np.zeros(whole_seg.size + 64, dtype=complex)
        for i0, i1 in ((0, 21), (21, 41), (41, 64)):
            seg, base = fast_enc.image(symbols[i0:i1], i0)
            lo = base - whole_base
            total[lo:lo + seg.size] += seg
        np.testing.assert_allclose(total[:whole_seg.size], whole_seg,
                                   atol=1e-10, rtol=0)
        np.testing.assert_allclose(total[whole_seg.size:], 0,
                                   atol=1e-10, rtol=0)

