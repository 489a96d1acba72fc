"""Synchronizer tests: detection positions, scores, acquisition accuracy."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.phy.channel import ChannelParams
from repro.phy.medium import Transmission, synthesize
from repro.phy.sync import Synchronizer


def one_packet_capture(frame, params, offset, rng,
                       noise_power=1.0, leading=8):
    tx = Transmission.from_symbols(frame.symbols, params, offset,
                                   "x")
    return synthesize([tx], noise_power, rng, leading=leading, tail=30)


class TestDetection:
    def test_position_is_symbol0_center(self, small_frame,
                                         rng):
        p = ChannelParams(gain=4.0)
        cap = one_packet_capture(small_frame, p, 25, rng)
        sync = Synchronizer(threshold=0.4)
        peaks = sync.detect(cap.samples)
        # Sidelobes of a 32-symbol preamble can clear a low threshold; the
        # true start must be the strongest detection.
        best = max(peaks, key=lambda pk: pk.score)
        assert best.position == cap.transmissions[0].symbol0

    def test_detects_under_frequency_offset(self, small_frame, rng):
        f = 4e-3
        p = ChannelParams(gain=4.0, freq_offset=f)
        cap = one_packet_capture(small_frame, p, 25, rng)
        sync = Synchronizer(threshold=0.4)
        compensated = sync.detect(cap.samples, coarse_freq=f,
                                  max_peaks=1)
        assert len(compensated) == 1
        assert compensated[0].position == cap.transmissions[0].symbol0
        # Without compensation the large offset destroys the correlation.
        scores = sync.correlation_scores(cap.samples, 0.0)
        comp_scores = sync.correlation_scores(cap.samples, f)
        assert comp_scores.max() > scores.max()

    def test_two_packets_two_peaks(self, small_frame,
                                   rng):
        p1 = ChannelParams(gain=4.0)
        p2 = ChannelParams(gain=4.0 * np.exp(1j))
        t1 = Transmission.from_symbols(small_frame.symbols, p1, 0,
                                       "a")
        t2 = Transmission.from_symbols(small_frame.symbols, p2, 150,
                                       "b")
        cap = synthesize([t1, t2], 1.0, rng, leading=8, tail=30)
        sync = Synchronizer(threshold=0.3)
        peaks = sync.detect(cap.samples)
        positions = [p.position for p in peaks]
        assert cap.transmissions[0].symbol0 in positions
        assert cap.transmissions[1].symbol0 in positions

    def test_no_peak_in_noise(self, rng):
        sync = Synchronizer(threshold=0.5)
        noise = (rng.standard_normal(600) + 1j * rng.standard_normal(600))
        assert sync.detect(noise) == []

    def test_threshold_validation(self):
        with pytest.raises(ConfigurationError):
            Synchronizer(threshold=1.5)


class TestAcquisition:
    @pytest.mark.parametrize("mu", [0.0, 0.3, 0.72])
    def test_sampling_offset_recovered(self, small_frame,
                                       rng, mu):
        p = ChannelParams(gain=4.0, sampling_offset=mu)
        cap = one_packet_capture(small_frame, p, 25, rng)
        sync = Synchronizer()
        est = sync.acquire(cap.samples, cap.transmissions[0].symbol0)
        # mu is recovered modulo the integer peak position.
        assert est.sampling_offset == pytest.approx(mu, abs=0.08)

    def test_gain_recovered(self, small_frame, rng):
        gain = 5.0 * np.exp(1j * 1.1)
        p = ChannelParams(gain=gain, sampling_offset=0.4)
        cap = one_packet_capture(small_frame, p, 25, rng,
                                 noise_power=0.1)
        sync = Synchronizer()
        est = sync.acquire(cap.samples, cap.transmissions[0].symbol0)
        assert abs(est.gain) == pytest.approx(abs(gain), rel=0.1)
        assert np.angle(est.gain * np.conj(gain)) == pytest.approx(0.0,
                                                                   abs=0.15)

    def test_frequency_is_the_candidate(self, small_frame, rng):
        p = ChannelParams(gain=4.0, freq_offset=2e-3)
        cap = one_packet_capture(small_frame, p, 25, rng,
                                 noise_power=0.01)
        sync = Synchronizer()
        pos = cap.transmissions[0].symbol0
        kept = sync.acquire(cap.samples, pos, coarse_freq=1.9e-3)
        assert kept.freq_offset == 1.9e-3

    def test_snr_estimate_reasonable(self, small_frame,
                                     rng):
        p = ChannelParams(gain=np.sqrt(10 ** 1.2))  # 12 dB over unit noise
        cap = one_packet_capture(small_frame, p, 25, rng)
        sync = Synchronizer()
        est = sync.acquire(cap.samples, cap.transmissions[0].symbol0)
        assert est.snr_db == pytest.approx(12.0, abs=2.0)
