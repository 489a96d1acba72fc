"""Collision detection (§4.2.1) and matching (§4.2.2) tests."""

import numpy as np
import pytest

from repro.core.api import ReceiverConfig, ZigZagReceiver
from repro.errors import ConfigurationError
from repro.phy.channel import ChannelParams
from repro.phy.frame import Frame
from repro.phy.medium import Transmission, synthesize
from repro.utils.bits import random_bits
from repro.zigzag.detect import CollisionDetector
from repro.zigzag.match import match_score


# Client frequency offsets of the senders in the collisions below.
SENDER_FREQS = (2e-3, -3e-3, 1e-3)


def sender_collision(rng, frames, offsets, snr_db=12.0,
                     freqs=SENDER_FREQS):
    """One capture in which sender *i* (frequency ``freqs[i]``) transmits
    ``frames[i]`` starting ``offsets[i]`` samples in."""
    amp = np.sqrt(10 ** (snr_db / 10))
    txs = [Transmission.from_symbols(
        frame.symbols,
        ChannelParams(gain=amp * np.exp(1j * rng.uniform(0, 6.28)),
                      freq_offset=freq,
                      sampling_offset=rng.uniform(0, 1)),
        offset, "ABC"[i])
        for i, (frame, freq, offset) in enumerate(
            zip(frames, freqs, offsets))]
    return synthesize(txs, 1.0, rng, leading=8, tail=30)


def collision_capture(rng, offset=150, snr_db=12.0,
                      frames=None, freqs=(2e-3, -3e-3)):
    if frames is None:
        frames = [Frame.make(random_bits(200, rng), src=i + 1)
                  for i in range(2)]
    return sender_collision(rng, frames, (0, offset), snr_db,
                            freqs), frames


class TestDetection:
    def test_collision_detected_with_offset(self, rng):
        cap, _ = collision_capture(rng, offset=150)
        detector = CollisionDetector(beta=0.3)
        verdict = detector.inspect(cap.samples,
                                   coarse_freqs=(2e-3, -3e-3))
        assert verdict.is_collision
        assert verdict.offset == pytest.approx(150, abs=2)

    def test_clean_packet_mostly_not_flagged(self, rng):
        """At the operating β, clean packets rarely trip the detector —
        the Table 5.1 false-positive rate. Harmless FPs are tolerated
        (§5.3a); we require a low rate, not zero."""
        detector = CollisionDetector(beta=0.5)
        flagged = 0
        trials = 10
        for _ in range(trials):
            frame = Frame.make(random_bits(200, rng))
            tx = Transmission.from_symbols(
                frame.symbols, ChannelParams(gain=5.0), 0, "A")
            cap = synthesize([tx], 1.0, rng, leading=8, tail=30)
            flagged += int(detector.inspect(cap.samples).is_collision)
        assert flagged <= trials * 0.3

    def test_verdict_offset_none_for_single(self, rng):
        from repro.zigzag.detect import CollisionVerdict
        assert CollisionVerdict(False, []).offset is None

    def test_false_negative_rate_reasonable(self, rng):
        """Buried preambles should mostly be found (Table 5.1)."""
        detector = CollisionDetector(beta=0.3)
        found = 0
        trials = 15
        for i in range(trials):
            cap, _ = collision_capture(rng, offset=120 + 10 * i)
            verdict = detector.inspect(cap.samples,
                                       coarse_freqs=(2e-3, -3e-3))
            found += int(verdict.is_collision)
        assert found >= trials * 0.8


class TestMatching:
    def test_same_packets_match(self, rng):
        cap1, frames = collision_capture(rng, offset=150)
        cap2, _ = collision_capture(rng, offset=60,
                                    frames=frames)
        pos1 = cap1.transmissions[1].symbol0
        pos2 = cap2.transmissions[1].symbol0
        score = match_score(cap1.samples, pos1, cap2.samples, pos2,
                            window=256)
        assert score > 0.25

    def test_different_packets_do_not_match(self, rng, preamble):
        cap1, _ = collision_capture(rng, offset=150)
        cap2, _ = collision_capture(rng, offset=60)
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


class TestIdentityGroundTruth:
    """§4.2.2 on known packets: two collisions of the same senders match
    only when they carry the same packets.

    Every packet opens with the shared preamble, and one sender's
    consecutive packets differ in the header only in the sequence
    number, so these are the hardest different-packet collisions the
    AP meets: the retransmission differs from its original by the retry
    bit alone."""

    @staticmethod
    def _frames(rng, k, seq):
        return [Frame.make(random_bits(200, rng), src=i + 1, seq=seq)
                for i in range(k)]

    @staticmethod
    def _matches(stored, probe, k):
        receiver = ZigZagReceiver(ReceiverConfig(
            max_collision_packets=k,
            expected_symbols=stored.transmissions[0].n_symbols))
        for src, freq in enumerate(SENDER_FREQS[:k], start=1):
            receiver.clients.update(src, freq)
        record = receiver._detect(stored.samples)
        new = receiver._detect(probe.samples)
        assert record.n_peaks == new.n_peaks == k
        receiver.buffer.store(record)
        matches, _ = receiver._direct_matches(new)
        return matches, record

    @pytest.mark.parametrize("k, first, second", [
        (2, (0, 150), (0, 90)),
        (3, (0, 130, 260), (0, 220, 80)),
    ])
    def test_different_packets_of_the_same_senders_do_not_match(
            self, rng, k, first, second):
        earlier = self._frames(rng, k, seq=5)
        later = self._frames(rng, k, seq=6)
        matches, _ = self._matches(
            sender_collision(rng, earlier, first),
            sender_collision(rng, later, second), k)
        assert matches == []

    @pytest.mark.parametrize("k, first, second", [
        (2, (0, 150), (0, 90)),
        (3, (0, 130, 260), (0, 220, 80)),
    ])
    def test_retransmitted_packets_match(self, rng, k,
                                         first, second):
        frames = self._frames(rng, k, seq=5)
        retries = [frame.retransmission() for frame in frames]
        matches, record = self._matches(
            sender_collision(rng, frames, first),
            sender_collision(rng, retries, second), k)
        assert matches == [record]
