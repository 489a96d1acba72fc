"""Re-encoder tests: chunk images must match the channel output (§4.2.3b)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.phy.channel import Channel, ChannelParams
from repro.phy.estimation import ChannelEstimate
from repro.phy.frame import Frame
from repro.phy.pulse import DELAY, SPS
from repro.utils.bits import random_bits
from repro.zigzag.reencode import Reencoder, add_segment, subtract_segment


def build_scene(rng, shaper, params, offset=50):
    frame = Frame.make(random_bits(150, rng))
    wave = Channel(params, rng).apply(shaper.shape(frame.symbols),
                                      start_sample=offset)
    buffer = np.zeros(offset + wave.size + 20, complex)
    buffer[offset:offset + wave.size] = wave
    start = offset + DELAY + params.sampling_offset
    estimate = ChannelEstimate(gain=params.gain,
                               freq_offset=params.freq_offset,
                               sampling_offset=params.sampling_offset,
                               snr_db=20.0)
    return frame, buffer, Reencoder(estimate=estimate,
                                    start=start)


class TestImageAccuracy:
    @pytest.mark.parametrize("mu", [0.0, 0.3, 0.65])
    def test_whole_packet_subtraction(self, rng, shaper, mu):
        params = ChannelParams(gain=2.0 * np.exp(1j * 0.4),
                               freq_offset=1.5e-3, sampling_offset=mu)
        frame, buffer, reencoder = build_scene(rng, shaper,
                                               params)
        segment, base = reencoder.image(frame.symbols, 0)
        residual = buffer.copy()
        subtract_segment(residual, segment, base)
        assert np.mean(np.abs(residual) ** 2) \
            < 1e-3 * np.mean(np.abs(buffer) ** 2)

    def test_chunkwise_equals_whole(self, rng, shaper):
        """Linearity: chunk images superpose to the whole-packet image."""
        params = ChannelParams(gain=1.5, freq_offset=8e-4,
                               sampling_offset=0.4)
        frame, buffer, reencoder = build_scene(rng, shaper,
                                               params)
        whole, whole_base = reencoder.image(frame.symbols, 0)
        accumulated = np.zeros_like(buffer)
        for a, b in ((0, 70), (70, 200), (200, frame.n_symbols)):
            seg, base = reencoder.image(frame.symbols[a:b], a)
            add_segment(accumulated, seg, base)
        target = np.zeros_like(buffer)
        add_segment(target, whole, whole_base)
        assert np.allclose(accumulated, target, atol=1e-9)

    def test_empty_chunk_rejected(self, rng, shaper):
        params = ChannelParams()
        _, _, reencoder = build_scene(rng, shaper, params)
        with pytest.raises(ConfigurationError):
            reencoder.image(np.zeros(0, complex), 0)


class TestSegments:
    def test_subtract_clips_edges(self):
        buffer = np.ones(10, complex)
        subtract_segment(buffer, np.ones(6, complex), 7)
        assert np.allclose(buffer[:7], 1.0)
        assert np.allclose(buffer[7:], 0.0)
        subtract_segment(buffer, np.ones(4, complex), -2)
        # Only the in-range part [0, 2) of the segment lands.
        assert np.allclose(buffer[:2], 0.0)
        assert np.allclose(buffer[2:7], 1.0)

    def test_add_is_inverse_of_subtract(self, rng):
        buffer = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        original = buffer.copy()
        seg = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        subtract_segment(buffer, seg, 5)
        add_segment(buffer, seg, 5)
        assert np.allclose(buffer, original)

    def test_core_slice_covers_symbols(self, rng, shaper):
        params = ChannelParams()
        _, _, reencoder = build_scene(rng, shaper, params)
        segment, base = reencoder.image(np.ones(20, complex), 10)
        core = reencoder.core_slice(10, 30, base, segment.size)
        assert core.stop - core.start >= 20 * SPS - 2
        assert core.start >= 0
