"""Capture-effect SIC tests (Fig 4-1d/e)."""

import numpy as np

from repro.phy.channel import ChannelParams
from repro.phy.constellation import BPSK
from repro.phy.frame import Frame
from repro.phy.medium import Transmission, synthesize
from repro.phy.sync import Synchronizer
from repro.utils.bits import random_bits
from repro.zigzag.engine import PacketSpec, PlacementParams
from repro.zigzag.sic import SicDecoder


def capture_scenario(rng, snr_strong=22.0, snr_weak=10.0,
                     offset=60, payload=200):
    frames = {
        "strong": Frame.make(random_bits(payload, rng), src=1),
        "weak": Frame.make(random_bits(payload, rng), src=2),
    }
    params = {
        "strong": ChannelParams(
            gain=np.sqrt(10 ** (snr_strong / 10))
            * np.exp(1j * rng.uniform(0, 6.28)),
            freq_offset=2e-3, sampling_offset=rng.uniform(0, 1),
            phase_noise_std=1e-3, tx_evm=0.03),
        "weak": ChannelParams(
            gain=np.sqrt(10 ** (snr_weak / 10))
            * np.exp(1j * rng.uniform(0, 6.28)),
            freq_offset=-3e-3, sampling_offset=rng.uniform(0, 1),
            phase_noise_std=1e-3, tx_evm=0.03),
    }
    cap = synthesize(
        [Transmission.from_symbols(frames["strong"].symbols,
                                   params["strong"], 0, "strong"),
         Transmission.from_symbols(frames["weak"].symbols, params["weak"],
                                   offset, "weak")],
        1.0, rng, leading=8, tail=30)
    sync = Synchronizer(threshold=0.3)
    placements = []
    for t in cap.transmissions:
        est = sync.acquire(cap.samples, t.symbol0,
                           coarse_freq=params[t.label].freq_offset)
        placements.append(PlacementParams(
            t.label, 0, t.symbol0 + est.sampling_offset, est))
    specs = {n: PacketSpec(n, frames[n].n_symbols, BPSK) for n in frames}
    return cap, frames, specs, placements


class TestSic:
    def test_single_collision_resolves_both(self, rng, stream_config):
        cap, frames, specs, placements = capture_scenario(rng)
        results = SicDecoder(stream_config).decode(cap.samples, specs,
                                                   placements)
        assert results["strong"].ber_against(
            frames["strong"].body_bits) == 0.0
        assert results["weak"].ber_against(
            frames["weak"].body_bits) < 1e-2

    def test_strong_decoded_first(self, rng, stream_config):
        cap, frames, specs, placements = capture_scenario(rng)
        results = SicDecoder(stream_config).decode(cap.samples, specs,
                                                   placements)
        assert results["strong"].via == "sic"
        assert results["strong"].success

    def test_weak_soft_symbols_kept_on_failure(self, rng, stream_config):
        """Fig 4-1d: the weak packet's faulty copy must be available for
        MRC with a later copy even when its CRC fails."""
        cap, frames, specs, placements = capture_scenario(
            rng, snr_strong=30.0, snr_weak=3.0)
        results = SicDecoder(stream_config).decode(cap.samples, specs,
                                                   placements)
        weak = results["weak"]
        assert weak.soft_symbols.size == frames["weak"].n_symbols

    def test_equal_power_sic_fails(self, rng, stream_config):
        """Without a power gap neither packet should fully decode — this is
        exactly the regime where ZigZag's pair decoding is needed."""
        cap, frames, specs, placements = capture_scenario(
            rng, snr_strong=10.0, snr_weak=10.0)
        results = SicDecoder(stream_config).decode(cap.samples, specs,
                                                   placements)
        bers = [results[n].ber_against(frames[n].body_bits)
                for n in frames]
        assert max(bers) > 0.01

    def test_read_only_capture_is_copied_not_subtracted(
            self, rng, stream_config):
        """A stored collision's samples are read-only: SIC subtracts
        each decoded packet from its own copy of the capture."""
        cap, frames, specs, placements = capture_scenario(rng)
        samples = cap.samples.copy()
        samples.flags.writeable = False
        results = SicDecoder(stream_config).decode(samples, specs,
                                                   placements)
        assert results["strong"].success
        assert np.array_equal(samples, cap.samples)
