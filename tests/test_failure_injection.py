"""Failure injection: the receiver must degrade gracefully, never crash.

Each test feeds a pathological input through a public API and checks for a
clean failure (DecodeResult with success=False, empty list, or a library
exception) rather than a crash or a silently-wrong success.
"""

import numpy as np

from repro.core import ReceiverConfig, ZigZagReceiver
from repro.phy.channel import ChannelParams
from repro.phy.estimation import ChannelEstimate
from repro.phy.frame import Frame
from repro.phy.medium import Transmission, synthesize
from repro.receiver.decoder import StandardDecoder
from repro.receiver.frontend import SymbolStreamDecoder
from repro.utils.bits import random_bits
from repro.zigzag.decoder import ZigZagMultiDecoder
from repro.zigzag.engine import PacketSpec, PlacementParams

from helpers import hidden_pair_scenario


class TestStandardDecoderRobustness:
    def test_empty_capture(self):
        decoder = StandardDecoder()
        result = decoder.decode(np.zeros(4, complex))
        assert not result.success

    def test_all_zero_capture(self):
        decoder = StandardDecoder()
        result = decoder.decode(np.zeros(2000, complex))
        assert not result.success

    def test_dc_only_capture(self):
        decoder = StandardDecoder()
        result = decoder.decode(np.full(2000, 5.0 + 0j))
        assert not result.success

    def test_preamble_only_no_body(self, rng):
        """A capture that cuts off right after the preamble."""
        frame = Frame.make(random_bits(200, rng))
        tx = Transmission.from_symbols(
            frame.symbols, ChannelParams(gain=6.0), 0, "a")
        cap = synthesize([tx], 1.0, rng, leading=8)
        truncated = cap.samples[:90]
        decoder = StandardDecoder()
        result = decoder.decode(truncated)
        assert not result.success

    def test_saturating_amplitude(self, rng):
        frame = Frame.make(random_bits(200, rng))
        tx = Transmission.from_symbols(
            frame.symbols, ChannelParams(gain=1e6), 0, "a")
        cap = synthesize([tx], 1.0, rng, leading=8, tail=20)
        decoder = StandardDecoder()
        result = decoder.decode(cap.samples)   # must not crash
        assert result.bits.size > 0 or not result.success

    def test_position_beyond_capture(self, rng):
        decoder = StandardDecoder()
        noise = rng.standard_normal(500) + 1j * rng.standard_normal(500)
        result = decoder.decode(noise, start_position=10_000)
        assert not result.success


class TestStreamDecoderRobustness:
    def test_zero_gain_estimate(self, stream_config, rng):
        estimate = ChannelEstimate(gain=0.0 + 0j, freq_offset=0.0,
                                   sampling_offset=0.0, snr_db=-30.0)
        stream = SymbolStreamDecoder(stream_config, estimate, 20.0)
        noise = rng.standard_normal(800) + 1j * rng.standard_normal(800)
        chunk = stream.decode_chunk(noise, 50)  # must not divide-by-zero
        assert np.all(np.isfinite(chunk.soft))

    def test_signal_shorter_than_chunk(self, stream_config, rng):
        estimate = ChannelEstimate(gain=1.0, freq_offset=0.0,
                                   sampling_offset=0.0, snr_db=10.0)
        stream = SymbolStreamDecoder(stream_config, estimate, 0.0)
        chunk = stream.decode_chunk(np.ones(10, complex), 40)
        assert chunk.soft.size == 40  # zero-padded tail, no crash


class TestZigZagRobustness:
    def test_wildly_wrong_estimates(self, rng, stream_config):
        """Garbage channel estimates must fail cleanly, not crash."""
        captures, frames, specs, placements = hidden_pair_scenario(
            rng)
        corrupted = [
            PlacementParams(p.packet, p.collision, p.start,
                            ChannelEstimate(gain=100.0 * 1j,
                                            freq_offset=0.01,
                                            sampling_offset=0.0,
                                            snr_db=40.0))
            for p in placements
        ]
        outcome = ZigZagMultiDecoder(stream_config).decode(
            [c.samples for c in captures], specs, corrupted)
        assert not outcome.all_decoded

    def test_wrong_length_specs(self, rng, stream_config):
        captures, frames, specs, placements = hidden_pair_scenario(
            rng)
        short = {n: PacketSpec(n, 64) for n in specs}
        outcome = ZigZagMultiDecoder(stream_config).decode(
            [c.samples for c in captures], short, placements)
        # Decodes 64 symbols per packet (prefix) but the CRC cannot pass.
        assert not outcome.all_decoded

    def test_single_capture_pair_decode(self, rng, stream_config):
        """Pair decoder on one capture: only non-overlapping regions are
        schedulable; overlapping-equal patterns fail cleanly."""
        captures, frames, specs, placements = hidden_pair_scenario(
            rng)
        only_first = [p for p in placements if p.collision == 0]
        outcome = ZigZagMultiDecoder(stream_config).decode(
            [captures[0].samples], specs, only_first)
        assert not outcome.all_decoded


class TestReceiverRobustness:
    def test_receiver_survives_garbage_stream(self, rng):
        receiver = ZigZagReceiver(ReceiverConfig(
            expected_symbols=312))
        for _ in range(5):
            n = int(rng.integers(50, 2000))
            garbage = (rng.standard_normal(n)
                       + 1j * rng.standard_normal(n)) * rng.uniform(0, 20)
            receiver.receive(garbage)  # must never raise

    def test_receiver_buffer_bounded(self, rng):
        """Unmatched collisions never grow the buffer beyond capacity."""
        config = ReceiverConfig(buffer_capacity=2,
                                expected_symbols=312)
        receiver = ZigZagReceiver(config)
        for i in range(5):
            frames = [Frame.make(random_bits(200, rng), src=j + 1)
                      for j in range(2)]
            txs = [Transmission.from_symbols(
                f.symbols,
                ChannelParams(gain=4.0 * np.exp(1j * rng.uniform(0, 6)),
                              freq_offset=4e-3 * (1 - 2 * j)),
                j * (100 + 20 * i), str(j))
                for j, f in enumerate(frames)]
            cap = synthesize(txs, 1.0, rng, leading=8, tail=30)
            receiver.receive(cap.samples)
        assert len(receiver.buffer) <= 2
