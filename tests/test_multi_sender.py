"""Beyond two interferers (§4.5): three packets across three collisions."""

import numpy as np

from repro.phy.channel import ChannelParams
from repro.phy.constellation import BPSK
from repro.phy.frame import Frame
from repro.phy.medium import Transmission, synthesize
from repro.phy.sync import Synchronizer
from repro.utils.bits import random_bits
from repro.zigzag.decoder import ZigZagMultiDecoder
from repro.zigzag.engine import PacketSpec, PlacementParams


def three_sender_scenario(rng, preamble, shaper, offset_rounds,
                          snr_db=13.0, payload=160):
    names = ["A", "B", "C"]
    amp = np.sqrt(10 ** (snr_db / 10))
    frames = {n: Frame.make(random_bits(payload, rng), src=i + 1,
                            preamble=preamble)
              for i, n in enumerate(names)}
    freqs = {n: float(rng.uniform(-4e-3, 4e-3)) for n in names}
    captures = []
    for offsets in offset_rounds:
        txs = []
        for n, off in zip(names, offsets):
            params = ChannelParams(
                gain=amp * np.exp(1j * rng.uniform(0, 2 * np.pi)),
                freq_offset=freqs[n],
                sampling_offset=float(rng.uniform(0, 1)),
                phase_noise_std=1e-3)
            txs.append(Transmission.from_symbols(
                frames[n].symbols, shaper, params, off, n))
        captures.append(synthesize(txs, 1.0, rng, leading=8, tail=30))
    sync = Synchronizer(preamble, shaper, threshold=0.3)
    placements = []
    for ci, capture in enumerate(captures):
        for t in capture.transmissions:
            est = sync.acquire(capture.samples, t.symbol0,
                               coarse_freq=freqs[t.label])
            placements.append(PlacementParams(
                t.label, ci, t.symbol0 + est.sampling_offset, est))
    specs = {n: PacketSpec(n, frames[n].n_symbols, BPSK) for n in names}
    return captures, frames, specs, placements


class TestThreeSenders:
    def test_three_collisions_decode_three_packets(self, rng, preamble,
                                                   shaper, stream_config):
        offset_rounds = [(0, 80, 180), (60, 0, 140), (100, 40, 0)]
        captures, frames, specs, placements = three_sender_scenario(
            rng, preamble, shaper, offset_rounds)
        outcome = ZigZagMultiDecoder(stream_config,
                                     use_backward=False).decode(
            [c.samples for c in captures], specs, placements)
        for name in frames:
            assert outcome.results[name].ber_against(
                frames[name].body_bits) < 1e-2, name

    def test_fig_6_1_chain_pattern(self, rng, preamble, shaper,
                                   stream_config):
        """§6(b): four packets, never more than two colliding at a time.

        P1+P2 collide, P2+P3 collide, P3+P4 collide, plus P1 re-colliding
        with P2 at a different offset to bootstrap — the general scheduler
        unravels the chain.
        """
        names = ["P1", "P2", "P3", "P4"]
        amp = np.sqrt(10 ** 1.3)
        frames = {n: Frame.make(random_bits(160, rng), src=i + 1,
                                preamble=preamble)
                  for i, n in enumerate(names)}
        freqs = {n: float(rng.uniform(-4e-3, 4e-3)) for n in names}

        def tx(name, offset):
            params = ChannelParams(
                gain=amp * np.exp(1j * rng.uniform(0, 2 * np.pi)),
                freq_offset=freqs[name],
                sampling_offset=float(rng.uniform(0, 1)),
                phase_noise_std=1e-3)
            return Transmission.from_symbols(frames[name].symbols, shaper,
                                             params, offset, name)

        pairs = [("P1", "P2", 120), ("P2", "P3", 70), ("P3", "P4", 150),
                 ("P1", "P2", 40)]
        captures = [synthesize([tx(a, 0), tx(b, off)], 1.0, rng,
                               leading=8, tail=30)
                    for a, b, off in pairs]
        sync = Synchronizer(preamble, shaper, threshold=0.3)
        placements = []
        for ci, capture in enumerate(captures):
            for t in capture.transmissions:
                est = sync.acquire(capture.samples, t.symbol0,
                                   coarse_freq=freqs[t.label])
                placements.append(PlacementParams(
                    t.label, ci, t.symbol0 + est.sampling_offset, est))
        specs = {n: PacketSpec(n, frames[n].n_symbols, BPSK)
                 for n in names}
        outcome = ZigZagMultiDecoder(stream_config,
                                     use_backward=False).decode(
            [c.samples for c in captures], specs, placements)
        for name in names:
            assert outcome.results[name].ber_against(
                frames[name].body_bits) < 2e-2, name

    def test_identical_offset_rounds_fail(self, rng, preamble, shaper,
                                          stream_config):
        offset_rounds = [(0, 60, 120)] * 3
        captures, frames, specs, placements = three_sender_scenario(
            rng, preamble, shaper, offset_rounds)
        outcome = ZigZagMultiDecoder(stream_config,
                                     use_backward=False).decode(
            [c.samples for c in captures], specs, placements)
        assert not outcome.all_decoded
