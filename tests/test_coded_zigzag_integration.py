"""Integration: convolutionally-coded payloads over ZigZag collisions.

The §6(a) pipeline end to end: encode payload -> frame -> collide twice ->
ZigZag decode -> soft-decision Viterbi over the MRC-combined payload
symbols. At SNRs where uncoded ZigZag still leaves residual bit errors,
the coded pipeline recovers the payload exactly.
"""

import numpy as np
import pytest

from repro.phy.channel import ChannelParams
from repro.phy.coding.iterative import decode_coded_soft, encode_for_zigzag
from repro.phy.constellation import BPSK
from repro.phy.frame import HEADER_BITS, Frame, descramble_soft_bpsk
from repro.phy.medium import Transmission, synthesize
from repro.phy.sync import Synchronizer
from repro.utils.bits import random_bits
from repro.utils.rng import make_rng
from repro.zigzag.decoder import ZigZagMultiDecoder
from repro.zigzag.engine import PacketSpec, PlacementParams


def coded_collision_pair(rng, preamble, shaper, snr_db, payload_bits=120):
    payloads = {n: random_bits(payload_bits, rng) for n in ("A", "B")}
    frames = {n: Frame.make(encode_for_zigzag(payloads[n]),
                            src=i + 1, preamble=preamble)
              for i, n in enumerate(payloads)}
    amp = np.sqrt(10 ** (snr_db / 10))
    params = {n: ChannelParams(
        gain=amp * np.exp(1j * rng.uniform(0, 2 * np.pi)),
        freq_offset=float(rng.uniform(-4e-3, 4e-3)),
        sampling_offset=float(rng.uniform(0, 1)),
        phase_noise_std=1e-3) for n in payloads}
    captures = []
    for offset in (160, 64):
        captures.append(synthesize(
            [Transmission.from_symbols(frames["A"].symbols, shaper,
                                       params["A"], 0, "A"),
             Transmission.from_symbols(frames["B"].symbols, shaper,
                                       params["B"], offset, "B")],
            1.0, rng, leading=8, tail=40))
    sync = Synchronizer(preamble, shaper, threshold=0.3)
    placements = []
    for ci, capture in enumerate(captures):
        for t in capture.transmissions:
            est = sync.acquire(capture.samples, t.symbol0,
                               coarse_freq=params[t.label].freq_offset)
            placements.append(PlacementParams(
                t.label, ci, t.symbol0 + est.sampling_offset, est))
    specs = {n: PacketSpec(n, frames[n].n_symbols, BPSK) for n in payloads}
    return captures, frames, payloads, specs, placements


class TestCodedZigZag:
    @pytest.mark.parametrize("snr_db", [7.0, 9.0])
    def test_code_recovers_payload_exactly(self, preamble, shaper,
                                           stream_config, snr_db):
        recovered = 0
        total = 0
        for seed in range(3):
            rng = make_rng(700 + seed)
            captures, frames, payloads, specs, placements = \
                coded_collision_pair(rng, preamble, shaper, snr_db)
            outcome = ZigZagMultiDecoder(stream_config).decode(
                [c.samples for c in captures], specs, placements)
            pre_len = len(preamble)
            for name, payload in payloads.items():
                soft = outcome.results[name].soft_symbols
                coded_region = descramble_soft_bpsk(
                    soft[pre_len + HEADER_BITS:], offset=HEADER_BITS)
                decoded = decode_coded_soft(coded_region, payload.size)
                total += 1
                if np.array_equal(decoded, payload):
                    recovered += 1
        assert recovered >= total - 1  # at most one unlucky packet

    def test_code_fixes_residual_symbol_errors(self, preamble, shaper,
                                               stream_config):
        """Find a case with residual uncoded errors and show the code
        removes them."""
        fixed_any = False
        for seed in range(6):
            rng = make_rng(880 + seed)
            captures, frames, payloads, specs, placements = \
                coded_collision_pair(rng, preamble, shaper, snr_db=6.5)
            outcome = ZigZagMultiDecoder(stream_config).decode(
                [c.samples for c in captures], specs, placements)
            pre_len = len(preamble)
            for name, payload in payloads.items():
                result = outcome.results[name]
                coded_region = descramble_soft_bpsk(
                    result.soft_symbols[pre_len + HEADER_BITS:],
                    offset=HEADER_BITS)
                decoded = decode_coded_soft(coded_region, payload.size)
                if (not result.success
                        and np.array_equal(decoded, payload)):
                    fixed_any = True
        assert fixed_any
