"""RRC pulse shaping and matched sampling tests."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.phy.pulse import MatchedSampler, rrc_function, rrc_taps
from repro.phy.resample import FractionalDelay


class TestRrc:
    def test_unit_energy_taps(self):
        taps = rrc_taps(sps=2, span=6, beta=0.35)
        assert np.sum(taps ** 2) == pytest.approx(1.0)

    def test_singularities_finite(self):
        beta = 0.35
        vals = rrc_function(np.array([0.0, 1 / (4 * beta),
                                      -1 / (4 * beta)]), beta)
        assert np.all(np.isfinite(vals))

    def test_bad_beta(self):
        with pytest.raises(ConfigurationError):
            rrc_function(np.array([0.0]), 1.5)

    def test_nyquist_pair(self):
        """RRC * RRC sampled at symbol spacing is (approximately) a delta:
        the raised-cosine zero-ISI property."""
        taps = rrc_taps(sps=2, span=8, beta=0.35)
        composite = np.convolve(taps, taps)
        center = composite.size // 2
        at_symbols = composite[center::2]
        assert at_symbols[0] == pytest.approx(1.0, abs=0.01)
        assert np.all(np.abs(at_symbols[1:]) < 0.02)


class TestShaper:
    def test_waveform_length(self, shaper):
        d = np.ones(10, complex)
        assert shaper.shape(d).size == shaper.waveform_length(10)

    def test_symbol_positions(self, shaper):
        """An isolated symbol's pulse peaks at delay + k*sps."""
        d = np.zeros(9, complex)
        d[4] = 1.0
        wave = shaper.shape(d)
        peak = int(np.argmax(np.abs(wave)))
        assert peak == shaper.delay + 4 * shaper.sps

    def test_empty_rejected(self, shaper):
        with pytest.raises(ConfigurationError):
            shaper.shape(np.zeros(0, complex))


class TestMatchedSampler:
    def test_integer_alignment_recovers_symbols(self, shaper, rng):
        d = (2 * rng.integers(0, 2, 150) - 1).astype(complex)
        wave = shaper.shape(d)
        out = MatchedSampler(shaper).sample(wave, shaper.delay, 150)
        assert np.max(np.abs(out - d)) < 0.02

    @pytest.mark.parametrize("mu", [0.25, 0.5, 0.75])
    def test_fractional_alignment(self, shaper, rng, mu):
        d = (2 * rng.integers(0, 2, 150) - 1).astype(complex)
        wave = FractionalDelay(mu, 6).apply(shaper.shape(d))
        out = MatchedSampler(shaper).sample(wave, shaper.delay + mu, 150)
        assert np.max(np.abs(out - d)[3:-3]) < 0.03

    def test_noise_power_preserved(self, shaper, rng):
        """The RRC is unit-energy, so white noise keeps its variance
        through the matched filter at symbol spacing."""
        noise = (rng.standard_normal(20_000)
                 + 1j * rng.standard_normal(20_000)) / np.sqrt(2)
        out = MatchedSampler(shaper).sample(noise, shaper.delay, 9_000)
        assert np.mean(np.abs(out) ** 2) == pytest.approx(1.0, rel=0.05)

    def test_count_zero(self, shaper):
        out = MatchedSampler(shaper).sample(np.ones(50, complex), 10.0, 0)
        assert out.size == 0

    def test_negative_count_rejected(self, shaper):
        with pytest.raises(ConfigurationError):
            MatchedSampler(shaper).sample(np.ones(50, complex), 10.0, -1)
