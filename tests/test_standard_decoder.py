"""StandardDecoder end-to-end tests across channel impairments."""

import numpy as np
import pytest

from repro.phy.channel import ChannelParams
from repro.phy.isi import default_isi_taps
from repro.phy.frame import Frame
from repro.phy.medium import Transmission, synthesize
from repro.receiver.decoder import StandardDecoder
from repro.utils.bits import random_bits


def transmit(frame, shaper, params, rng, noise_power=1.0, offset=20):
    tx = Transmission.from_symbols(frame.symbols, shaper, params, offset,
                                   "x")
    return synthesize([tx], noise_power, rng, leading=10, tail=30)


class TestCleanDecoding:
    def test_high_snr_decodes_exactly(self, preamble, shaper, rng):
        frame = Frame.make(random_bits(300, rng), src=3, seq=11,
                           preamble=preamble)
        params = ChannelParams(gain=10.0 * np.exp(1j * 0.5))
        cap = transmit(frame, shaper, params, rng)
        result = StandardDecoder(preamble, shaper).decode(
            cap.samples)
        assert result.success
        assert np.array_equal(result.bits, frame.body_bits)
        assert result.header.src == 3 and result.header.seq == 11

    def test_payload_recovered(self, preamble, shaper, rng):
        payload = random_bits(120, rng)
        frame = Frame.make(payload, preamble=preamble)
        cap = transmit(frame, shaper, ChannelParams(gain=8.0), rng)
        result = StandardDecoder(preamble, shaper).decode(
            cap.samples)
        assert np.array_equal(result.payload, payload)

    @pytest.mark.parametrize("modulation", ["qpsk", "qam16"])
    def test_higher_order_modulations(self, preamble, shaper, rng,
                                      modulation):
        frame = Frame.make(random_bits(256, rng), modulation=modulation,
                           preamble=preamble)
        params = ChannelParams(gain=30.0 * np.exp(1j * 1.2))
        cap = transmit(frame, shaper, params, rng)
        result = StandardDecoder(preamble, shaper).decode(
            cap.samples)
        assert result.success
        assert np.array_equal(result.bits, frame.body_bits)


class TestImpairments:
    def test_frequency_and_sampling_offset(self, preamble, shaper, rng):
        frame = Frame.make(random_bits(400, rng), preamble=preamble)
        params = ChannelParams(gain=6.0, freq_offset=3e-3,
                               sampling_offset=0.55,
                               phase_noise_std=1e-3)
        cap = transmit(frame, shaper, params, rng)
        decoder = StandardDecoder(preamble, shaper, coarse_freq=3e-3 * 0.99)
        result = decoder.decode(cap.samples)
        assert result.success

    def test_isi_needs_equalizer(self, preamble, shaper, rng):
        frame = Frame.make(random_bits(400, rng), preamble=preamble)
        params = ChannelParams(gain=4.0,
                               isi_taps=tuple(default_isi_taps(0.45)))
        cap = transmit(frame, shaper, params, rng)
        with_eq = StandardDecoder(preamble, shaper)
        without_eq = StandardDecoder(preamble, shaper, use_equalizer=False)
        ber_with = with_eq.decode(cap.samples).ber_against(frame.body_bits)
        ber_without = without_eq.decode(cap.samples).ber_against(
            frame.body_bits)
        assert ber_with < 1e-3
        assert ber_with <= ber_without

    def test_tracking_ablation_breaks_long_packets(self, preamble, shaper,
                                                   rng):
        """Table 5.1 row 2: without phase tracking a residual frequency
        error accumulates and the packet fails."""
        frame = Frame.make(random_bits(1200, rng), preamble=preamble)
        params = ChannelParams(gain=8.0, freq_offset=2e-3)
        cap = transmit(frame, shaper, params, rng)
        coarse = 2e-3 + 1.2e-4  # residual error that accumulates phase
        tracked = StandardDecoder(preamble, shaper, coarse_freq=coarse)
        untracked = StandardDecoder(preamble, shaper, coarse_freq=coarse,
                                    track_phase=False)
        assert tracked.decode(cap.samples).ber_against(
            frame.body_bits) < 1e-3
        assert untracked.decode(cap.samples).ber_against(
            frame.body_bits) > 0.05


class TestFailureModes:
    def test_noise_only_returns_failure(self, preamble, shaper, rng):
        noise = rng.standard_normal(800) + 1j * rng.standard_normal(800)
        result = StandardDecoder(preamble, shaper).decode(noise)
        assert not result.success
        assert result.bits.size == 0

    def test_truncated_capture(self, preamble, shaper, rng):
        frame = Frame.make(random_bits(400, rng), preamble=preamble)
        cap = transmit(frame, shaper, ChannelParams(gain=8.0), rng)
        result = StandardDecoder(preamble, shaper).decode(
            cap.samples[:300])
        assert not result.success

    def test_capture_shorter_than_preamble_fails_softly(self, preamble,
                                                        shaper):
        result = StandardDecoder(preamble, shaper).decode(
            np.ones(10, complex))
        assert not result.success
        assert result.detail == "capture too short for sync"

    def test_detection_fault_propagates(self, preamble, shaper, rng,
                                        monkeypatch):
        """Only a too-short capture is a decode failure; any other fault
        in detection is a bug and must surface."""
        decoder = StandardDecoder(preamble, shaper)

        def broken(*args, **kwargs):
            raise RuntimeError("detection fault")

        monkeypatch.setattr(decoder._sync, "detect", broken)
        with pytest.raises(RuntimeError, match="detection fault"):
            decoder.decode(rng.standard_normal(800) + 0j)

    def test_ber_counts_missing_bits(self, preamble, shaper, rng):
        frame = Frame.make(random_bits(64, rng), preamble=preamble)
        from repro.receiver.result import DecodeResult
        failure = DecodeResult.failure("x")
        assert failure.ber_against(frame.body_bits) == 1.0
