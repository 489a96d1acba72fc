"""Integration tests of the full ZigZag pair decoder (§4.2, §4.3)."""

import numpy as np

from repro.receiver.frontend import StreamConfig
from repro.zigzag.decoder import ZigZagMultiDecoder

from helpers import hidden_pair_scenario


class TestPairDecoding:
    def test_canonical_pattern_decodes(self, rng, stream_config):
        captures, frames, specs, placements = hidden_pair_scenario(
            rng, snr_db=12.0)
        outcome = ZigZagMultiDecoder(stream_config).decode(
            [c.samples for c in captures], specs, placements)
        for name in frames:
            assert outcome.results[name].success, name
            assert outcome.results[name].ber_against(
                frames[name].body_bits) == 0.0

    def test_residual_approaches_noise_floor(self, rng, stream_config):
        captures, frames, specs, placements = hidden_pair_scenario(
            rng, snr_db=15.0)
        outcome = ZigZagMultiDecoder(stream_config).decode(
            [c.samples for c in captures], specs, placements)
        for power in outcome.residual_powers:
            assert power < 2.0  # noise floor is 1.0

    def test_equal_offsets_fail_gracefully(self, rng, stream_config):
        captures, frames, specs, placements = hidden_pair_scenario(
            rng, offsets=(100, 100))
        outcome = ZigZagMultiDecoder(stream_config).decode(
            [c.samples for c in captures], specs, placements)
        assert not outcome.all_decoded
        assert "schedule" in outcome.detail

    def test_forward_only_mode(self, rng, stream_config):
        captures, frames, specs, placements = hidden_pair_scenario(
            rng, snr_db=12.0)
        outcome = ZigZagMultiDecoder(stream_config,
                                     use_backward=False).decode(
            [c.samples for c in captures], specs, placements)
        assert outcome.backward_soft is None
        for name in frames:
            assert outcome.results[name].ber_against(
                frames[name].body_bits) < 0.01

    def test_backward_pass_improves_low_snr_ber(self):
        """§4.3b: fwd+bwd MRC lowers the BER versus forward-only."""
        config = StreamConfig()
        fwd, both = [], []
        for seed in range(5):
            rng = np.random.default_rng(seed + 50)
            captures, frames, specs, placements = hidden_pair_scenario(
                rng, snr_db=6.5, payload_bits=300)
            for use_backward, bucket in ((False, fwd), (True, both)):
                outcome = ZigZagMultiDecoder(
                    config, use_backward=use_backward).decode(
                    [c.samples for c in captures], specs, placements)
                bucket += [outcome.results[n].ber_against(
                    frames[n].body_bits) for n in frames]
        assert np.mean(both) <= np.mean(fwd) + 1e-4

    def test_asymmetric_powers(self, rng, stream_config):
        captures, frames, specs, placements = hidden_pair_scenario(
            rng, snr_db=16.0, snr_b_db=10.0)
        outcome = ZigZagMultiDecoder(stream_config).decode(
            [c.samples for c in captures], specs, placements)
        for name in frames:
            assert outcome.results[name].ber_against(
                frames[name].body_bits) < 1e-2

    def test_flipped_order_collisions(self, stream_config):
        """Fig 4-1b: B first in one collision, A first in the other."""
        rng = np.random.default_rng(9)
        from repro.phy.channel import ChannelParams
        from repro.phy.frame import Frame
        from repro.phy.medium import Transmission, synthesize
        from repro.phy.sync import Synchronizer
        from repro.utils.bits import random_bits
        from repro.zigzag.engine import PacketSpec, PlacementParams
        from repro.phy.constellation import BPSK

        amp = np.sqrt(10 ** 1.2)
        frames = {n: Frame.make(random_bits(200, rng), src=i + 1)
                  for i, n in enumerate("AB")}
        params = {n: ChannelParams(
            gain=amp * np.exp(1j * rng.uniform(0, 6.28)),
            freq_offset=float(rng.uniform(-4e-3, 4e-3)),
            sampling_offset=float(rng.uniform(0, 1)),
            phase_noise_std=1e-3) for n in "AB"}
        cap1 = synthesize(
            [Transmission.from_symbols(frames["A"].symbols, params["A"],
                                       0, "A"),
             Transmission.from_symbols(frames["B"].symbols, params["B"],
                                       120, "B")],
            1.0, rng, leading=8, tail=40)
        cap2 = synthesize(
            [Transmission.from_symbols(frames["B"].symbols, params["B"],
                                       0, "B"),
             Transmission.from_symbols(frames["A"].symbols, params["A"],
                                       70, "A")],
            1.0, rng, leading=8, tail=40)
        sync = Synchronizer(threshold=0.3)
        placements = []
        for ci, cap in enumerate((cap1, cap2)):
            for t in cap.transmissions:
                est = sync.acquire(cap.samples, t.symbol0,
                                   coarse_freq=params[t.label].freq_offset)
                placements.append(PlacementParams(
                    t.label, ci, t.symbol0 + est.sampling_offset, est))
        specs = {n: PacketSpec(n, frames[n].n_symbols, BPSK) for n in "AB"}
        outcome = ZigZagMultiDecoder(stream_config).decode(
            [cap1.samples, cap2.samples], specs, placements)
        for name in frames:
            assert outcome.results[name].ber_against(
                frames[name].body_bits) < 1e-2

    def test_oracle_estimates_give_zero_ber(self, rng, stream_config):
        captures, frames, specs, placements = hidden_pair_scenario(
            rng, snr_db=12.0, oracle=True,
            phase_noise=0.0)
        outcome = ZigZagMultiDecoder(stream_config).decode(
            [c.samples for c in captures], specs, placements)
        for name in frames:
            assert outcome.results[name].ber_against(
                frames[name].body_bits) == 0.0
