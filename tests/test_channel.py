"""Channel model tests (Eq. 3.1 and the §3.1 impairments)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.phy.channel import Channel, ChannelParams
from repro.phy.isi import default_isi_taps
from repro.phy.noise import signal_power


class TestParams:
    def test_freq_offset_bound(self):
        with pytest.raises(ConfigurationError):
            ChannelParams(freq_offset=0.6)

    def test_negative_phase_noise_rejected(self):
        with pytest.raises(ConfigurationError):
            ChannelParams(phase_noise_std=-0.1)

    def test_negative_evm_rejected(self):
        with pytest.raises(ConfigurationError):
            ChannelParams(tx_evm=-0.1)


class TestApply:
    def test_gain_and_phase(self, rng):
        p = ChannelParams(gain=2.0 * np.exp(1j * 0.7))
        x = np.ones(100, complex)
        y = Channel(p, rng).apply(x)
        assert np.allclose(y, 2.0 * np.exp(1j * 0.7))

    def test_freq_offset_ramp(self, rng):
        p = ChannelParams(freq_offset=1e-3)
        x = np.ones(200, complex)
        y = Channel(p, rng).apply(x, start_sample=50)
        n = np.arange(50, 250)
        assert np.allclose(y, np.exp(2j * np.pi * 1e-3 * n), atol=1e-9)

    def test_start_sample_phase_coherence(self, rng):
        """Two segments with consecutive start_samples form one ramp."""
        p = ChannelParams(freq_offset=2e-3)
        x = np.ones(100, complex)
        full = Channel(p, rng).apply(x, start_sample=0)
        part2 = Channel(p, rng).apply(x[60:], start_sample=60)
        assert np.allclose(full[60:], part2, atol=1e-9)

    def test_phase_noise_is_random_walk(self):
        p = ChannelParams(phase_noise_std=0.01)
        x = np.ones(5000, complex)
        y = Channel(p, np.random.default_rng(0)).apply(x)
        phases = np.unwrap(np.angle(y))
        increments = np.diff(phases)
        assert np.std(increments) == pytest.approx(0.01, rel=0.1)

    def test_tx_evm_adds_proportional_distortion(self):
        p = ChannelParams(gain=3.0, tx_evm=0.1)
        x = np.ones(20_000, complex)
        y = Channel(p, np.random.default_rng(0)).apply(x)
        error = y / 3.0 - x
        assert signal_power(error) == pytest.approx(0.01, rel=0.1)

    def test_isi_spreads_energy(self, rng):
        p = ChannelParams(isi_taps=tuple(default_isi_taps(0.5)))
        x = np.zeros(32, complex)
        x[16] = 1.0
        y = Channel(p, rng).apply(x)
        assert np.count_nonzero(np.abs(y) > 0.01) > 1

    def test_empty_input(self, rng):
        assert Channel(ChannelParams(), rng).apply([]).size == 0


class TestReconstruct:
    def test_reconstruct_matches_apply_without_randomness(self, rng):
        p = ChannelParams(gain=1.5 * np.exp(-1j * 0.3), freq_offset=5e-4,
                          sampling_offset=0.4,
                          isi_taps=tuple(default_isi_taps(0.2)))
        x = np.exp(1j * np.linspace(0, 3, 100))
        ch = Channel(p, rng)
        assert np.allclose(ch.apply(x, 10), ch.reconstruct(x, 10),
                           atol=1e-12)

    def test_reconstruct_excludes_phase_noise_and_evm(self):
        p = ChannelParams(phase_noise_std=0.05, tx_evm=0.05)
        x = np.ones(100, complex)
        ch = Channel(p, np.random.default_rng(3))
        applied = ch.apply(x)
        reconstructed = ch.reconstruct(x)
        assert not np.allclose(applied, reconstructed)
        assert np.allclose(reconstructed, x)
