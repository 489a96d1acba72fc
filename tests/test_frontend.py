"""SymbolStreamDecoder tests: chunked decoding, refinement, regions."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.phy.channel import Channel, ChannelParams
from repro.phy.constellation import BPSK, QPSK
from repro.phy.estimation import ChannelEstimate
from repro.phy.frame import HEADER_BITS, Frame
from repro.receiver.frontend import SymbolStreamDecoder
from repro.utils.bits import random_bits


def make_stream_scene(rng, preamble, shaper, config, *, gain=4.0 + 0j,
                      freq=1e-3, mu=0.3, payload=300, offset=30):
    frame = Frame.make(random_bits(payload, rng), preamble=preamble)
    params = ChannelParams(gain=gain, freq_offset=freq, sampling_offset=mu)
    wave = Channel(params, rng).apply(shaper.shape(frame.symbols),
                                      start_sample=offset)
    buffer = np.zeros(offset + wave.size + 20, complex)
    buffer[offset:offset + wave.size] = wave
    buffer += (rng.standard_normal(buffer.size)
               + 1j * rng.standard_normal(buffer.size)) / np.sqrt(2)
    start = offset + shaper.delay + mu
    estimate = ChannelEstimate(gain=gain, freq_offset=freq,
                               sampling_offset=mu, snr_db=12.0)
    stream = SymbolStreamDecoder(config, estimate, start)
    return frame, buffer, stream


class TestChunkedDecoding:
    def test_single_chunk_decodes_packet(self, rng, preamble, shaper,
                                         stream_config):
        from repro.phy.frame import scramble_bits
        frame, buffer, stream = make_stream_scene(rng, preamble, shaper,
                                                  stream_config)
        chunk = stream.decode_chunk(buffer, frame.n_symbols)
        bits = scramble_bits(
            BPSK.demodulate(chunk.decisions[len(preamble):]))
        assert np.array_equal(bits, frame.body_bits)

    def test_chunked_equals_single(self, rng, preamble, shaper,
                                   stream_config):
        frame, buffer, stream_a = make_stream_scene(rng, preamble, shaper,
                                                    stream_config)
        whole = stream_a.decode_chunk(buffer, frame.n_symbols)
        # Rebuild the identical scene for the chunked run.
        rng2 = np.random.default_rng(1234)
        frame_b, buffer_b, stream_b = make_stream_scene(
            rng2, preamble, shaper, stream_config)
        pieces = []
        for end in (50, 130, 250, frame_b.n_symbols):
            pieces.append(stream_b.decode_chunk(buffer_b, end).decisions)
        assert np.array_equal(np.concatenate(pieces), whole.decisions)

    def test_cursor_enforced(self, rng, preamble, shaper, stream_config):
        frame, buffer, stream = make_stream_scene(rng, preamble, shaper,
                                                  stream_config)
        stream.decode_chunk(buffer, 50)
        with pytest.raises(ConfigurationError):
            stream.decode_chunk(buffer, 30)

    def test_effective_symbols_carry_phase(self, rng, preamble, shaper,
                                           stream_config):
        frame, buffer, stream = make_stream_scene(rng, preamble, shaper,
                                                  stream_config)
        chunk = stream.decode_chunk(buffer, 100)
        rotated = chunk.decisions * np.exp(1j * chunk.phases)
        assert np.allclose(np.abs(rotated), np.abs(chunk.decisions))


class TestRefinement:
    def test_gain_refined_after_preamble(self, rng, preamble, shaper,
                                         stream_config):
        true_gain = 4.0 * np.exp(1j * 0.2)
        frame, buffer, stream = make_stream_scene(
            rng, preamble, shaper, stream_config, gain=true_gain)
        # Feed a deliberately poor initial gain estimate.
        stream.estimate = stream.estimate.with_gain(true_gain * 1.3
                                                    * np.exp(1j * 0.3))
        stream.decode_chunk(buffer, frame.n_symbols)
        assert abs(stream.estimate.gain - true_gain) \
            < abs(true_gain * 1.3 * np.exp(1j * 0.3) - true_gain)

    def test_equalizer_skipped_on_clean_channel(self, rng, preamble,
                                                shaper, stream_config):
        frame, buffer, stream = make_stream_scene(rng, preamble, shaper,
                                                  stream_config)
        stream.decode_chunk(buffer, frame.n_symbols)
        assert stream.equalizer is None  # no ISI -> no training


class TestRegions:
    def test_constellation_switch_at_payload(self, preamble,
                                             stream_config):
        estimate = ChannelEstimate(1.0, 0.0, 0.0, 10.0)
        stream = SymbolStreamDecoder(stream_config, estimate, 0.0,
                                     body_constellation=QPSK)
        boundary = len(preamble) + HEADER_BITS
        assert stream.constellation_at(boundary - 1) is BPSK
        assert stream.constellation_at(boundary) is QPSK

    def test_reversed_regions(self, preamble, stream_config):
        estimate = ChannelEstimate(1.0, 0.0, 0.0, 10.0)
        n = 200
        stream = SymbolStreamDecoder(stream_config, estimate, 0.0,
                                     body_constellation=QPSK,
                                     reversed_total=n)
        boundary = n - (len(preamble) + HEADER_BITS)
        assert stream.constellation_at(boundary - 1) is QPSK
        assert stream.constellation_at(boundary) is BPSK
        assert stream.data_aided_preamble is False

    def test_pilots_guide_tracking(self, rng, preamble, shaper,
                                   stream_config):
        """With pilots covering the body, tracking survives a phase jump
        that blind BPSK decisions would misresolve."""
        frame, buffer, stream = make_stream_scene(rng, preamble, shaper,
                                                  stream_config)
        true_symbols = frame.symbols
        piloted = SymbolStreamDecoder(
            stream_config, stream.estimate, stream.start,
            pilots=true_symbols)
        chunk = piloted.decode_chunk(buffer, frame.n_symbols)
        assert np.array_equal(chunk.decisions, true_symbols)
