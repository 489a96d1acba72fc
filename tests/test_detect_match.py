"""Collision detection (§4.2.1) and matching (§4.2.2) tests."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.phy.channel import ChannelParams
from repro.phy.frame import Frame
from repro.phy.medium import Transmission, synthesize
from repro.utils.bits import random_bits
from repro.zigzag.detect import CollisionDetector
from repro.zigzag.match import match_score


def collision_capture(rng, preamble, shaper, offset=150, snr_db=12.0,
                      frames=None, freqs=(2e-3, -3e-3)):
    amp = np.sqrt(10 ** (snr_db / 10))
    if frames is None:
        frames = [Frame.make(random_bits(200, rng), src=i + 1,
                             preamble=preamble) for i in range(2)]
    txs = [
        Transmission.from_symbols(
            frames[0].symbols, shaper,
            ChannelParams(gain=amp * np.exp(1j * rng.uniform(0, 6.28)),
                          freq_offset=freqs[0],
                          sampling_offset=rng.uniform(0, 1)), 0, "A"),
        Transmission.from_symbols(
            frames[1].symbols, shaper,
            ChannelParams(gain=amp * np.exp(1j * rng.uniform(0, 6.28)),
                          freq_offset=freqs[1],
                          sampling_offset=rng.uniform(0, 1)), offset, "B"),
    ]
    return synthesize(txs, 1.0, rng, leading=8, tail=30), frames


class TestDetection:
    def test_collision_detected_with_offset(self, rng, preamble, shaper):
        cap, _ = collision_capture(rng, preamble, shaper, offset=150)
        detector = CollisionDetector(preamble, shaper, beta=0.3)
        verdict = detector.inspect(cap.samples,
                                   coarse_freqs=(2e-3, -3e-3))
        assert verdict.is_collision
        assert verdict.offset == pytest.approx(150, abs=2)

    def test_clean_packet_mostly_not_flagged(self, rng, preamble, shaper):
        """At the operating β, clean packets rarely trip the detector —
        the Table 5.1 false-positive rate. Harmless FPs are tolerated
        (§5.3a); we require a low rate, not zero."""
        detector = CollisionDetector(preamble, shaper, beta=0.5)
        flagged = 0
        trials = 10
        for _ in range(trials):
            frame = Frame.make(random_bits(200, rng), preamble=preamble)
            tx = Transmission.from_symbols(frame.symbols, shaper,
                                           ChannelParams(gain=5.0), 0, "A")
            cap = synthesize([tx], 1.0, rng, leading=8, tail=30)
            flagged += int(detector.inspect(cap.samples).is_collision)
        assert flagged <= trials * 0.3

    def test_verdict_offset_none_for_single(self, rng, preamble, shaper):
        from repro.zigzag.detect import CollisionVerdict
        assert CollisionVerdict(False, []).offset is None

    def test_false_negative_rate_reasonable(self, rng, preamble, shaper):
        """Buried preambles should mostly be found (Table 5.1)."""
        detector = CollisionDetector(preamble, shaper, beta=0.3)
        found = 0
        trials = 15
        for i in range(trials):
            cap, _ = collision_capture(rng, preamble, shaper,
                                       offset=120 + 10 * i)
            verdict = detector.inspect(cap.samples,
                                       coarse_freqs=(2e-3, -3e-3))
            found += int(verdict.is_collision)
        assert found >= trials * 0.8


class TestMatching:
    def test_same_packets_match(self, rng, preamble, shaper):
        cap1, frames = collision_capture(rng, preamble, shaper, offset=150)
        cap2, _ = collision_capture(rng, preamble, shaper, offset=60,
                                    frames=frames)
        pos1 = cap1.transmissions[1].symbol0
        pos2 = cap2.transmissions[1].symbol0
        score = match_score(cap1.samples, pos1, cap2.samples, pos2,
                            window=256)
        assert score > 0.25

    def test_different_packets_do_not_match(self, rng, preamble, shaper):
        cap1, _ = collision_capture(rng, preamble, shaper, offset=150)
        cap2, _ = collision_capture(rng, preamble, shaper, offset=60)
        # Different payloads -> correlation only at the shared preamble;
        # score over a window dominated by payload stays low.
        pos1 = cap1.transmissions[1].symbol0 + 2 * len(preamble)
        pos2 = cap2.transmissions[1].symbol0 + 2 * len(preamble)
        score = match_score(cap1.samples, pos1, cap2.samples, pos2,
                            window=256)
        assert score < 0.25

    def test_window_validation(self):
        with pytest.raises(ConfigurationError):
            match_score(np.ones(10, complex), 0, np.ones(10, complex), 0,
                        window=0)

    def test_position_validation(self):
        with pytest.raises(ConfigurationError):
            match_score(np.ones(10, complex), 20, np.ones(10, complex), 0,
                        window=8)

    def test_overlap_too_short(self):
        with pytest.raises(ConfigurationError):
            match_score(np.ones(10, complex), 8, np.ones(10, complex), 8,
                        window=16)
