"""Phase tracker tests (§4.2.4b)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.phy.constellation import BPSK, QPSK
from repro.phy.tracking import PhaseTracker


class TestPhaseTracker:
    def test_tracks_constant_phase(self, rng):
        bits = rng.integers(0, 2, 200)
        x = BPSK.modulate(bits)
        y = x * np.exp(1j * 0.4)
        tracker = PhaseTracker()
        corrected, decisions, phases = tracker.process(y, BPSK)
        # After convergence the corrected symbols sit near the true points.
        tail_error = np.abs(corrected[100:] - x[100:])
        assert tail_error.max() < 0.15
        assert phases[-1] == pytest.approx(0.4, abs=0.1)

    def test_tracks_frequency_ramp(self, rng):
        bits = rng.integers(0, 2, 800)
        x = BPSK.modulate(bits)
        freq = 0.002  # rad/symbol
        y = x * np.exp(1j * freq * np.arange(800))
        tracker = PhaseTracker()
        corrected, decisions, _ = tracker.process(y, BPSK)
        errors = np.abs(np.sign(corrected.real[400:])
                        - np.sign(x.real[400:]))
        assert errors.max() == 0.0
        assert tracker.freq == pytest.approx(freq, abs=5e-4)

    def test_data_aided_mode(self, rng):
        known = BPSK.modulate(rng.integers(0, 2, 64))
        y = known * np.exp(1j * 1.2)  # beyond blind BPSK ambiguity
        tracker = PhaseTracker()
        corrected, decisions, _ = tracker.process(y, BPSK, known=known)
        assert np.allclose(decisions, known)
        assert tracker.phase == pytest.approx(1.2, abs=0.2)

    def test_disabled_tracker_never_updates(self, rng):
        y = BPSK.modulate(rng.integers(0, 2, 50)) * np.exp(1j * 0.3)
        tracker = PhaseTracker(enabled=False)
        tracker.process(y, BPSK)
        assert tracker.phase == 0.0
        assert tracker.freq == 0.0

    def test_known_length_mismatch(self):
        tracker = PhaseTracker()
        with pytest.raises(ConfigurationError):
            tracker.process(np.ones(4, complex), BPSK,
                            known=np.ones(3, complex))

    def test_segmented_equals_whole(self, rng):
        """Chunked processing must equal one-shot processing — the property
        ZigZag's chunk decoding relies on."""
        bits = rng.integers(0, 2, 300)
        y = BPSK.modulate(bits) * np.exp(1j * (0.1 + 0.001 *
                                               np.arange(300)))
        whole = PhaseTracker()
        w_corr, _, _ = whole.process(y, BPSK)
        chunked = PhaseTracker()
        parts = [chunked.process(y[a:b], BPSK)[0]
                 for a, b in ((0, 100), (100, 180), (180, 300))]
        assert np.allclose(np.concatenate(parts), w_corr)

    def test_advance_coasts_at_freq(self):
        tracker = PhaseTracker()
        tracker.freq = 0.01
        tracker.advance(10)
        assert tracker.phase == pytest.approx(0.1)
        with pytest.raises(ConfigurationError):
            tracker.advance(-1)

    def test_works_with_qpsk(self, rng):
        bits = rng.integers(0, 2, 400)
        x = QPSK.modulate(bits)
        y = x * np.exp(1j * (0.2 + 0.0005 * np.arange(x.size)))
        corrected, decisions, _ = PhaseTracker().process(y, QPSK)
        assert np.allclose(decisions[100:], x[100:])
