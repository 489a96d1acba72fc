"""Linear equalizer tests: LS fit, ridge, inversion (§4.2.4d)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.phy.constellation import BPSK
from repro.phy.equalizer import LmsEqualizer
from repro.phy.isi import IsiFilter, default_isi_taps


def make_training(rng, n=200, strength=0.3):
    d = BPSK.modulate(rng.integers(0, 2, n))
    channel = IsiFilter(default_isi_taps(strength))
    return channel.apply(d), d, channel


class TestLeastSquares:
    def test_undoes_isi(self, rng):
        received, desired, channel = make_training(rng)
        # The default multipath profile spans +/-3 symbols, so its inverse
        # needs a longer filter than the channel itself.
        eq = LmsEqualizer(n_taps=15)
        eq.fit_least_squares(received, desired)
        out = eq.equalize(received)
        error = np.mean(np.abs(out[15:-15] - desired[15:-15]) ** 2)
        assert error < 0.01

    def test_ridge_shrinks_toward_identity(self, rng):
        received, desired, _ = make_training(rng, n=40, strength=0.0)
        noisy = received + 0.3 * (rng.standard_normal(40)
                                  + 1j * rng.standard_normal(40))
        free = LmsEqualizer(n_taps=7)
        free.fit_least_squares(noisy, desired)
        ridged = LmsEqualizer(n_taps=7)
        ridged.fit_least_squares(noisy, desired, ridge=200.0)
        identity = np.zeros(7, complex)
        identity[3] = 1.0
        assert np.linalg.norm(ridged.taps - identity) \
            < np.linalg.norm(free.taps - identity)

    def test_negative_ridge_rejected(self, rng):
        received, desired, _ = make_training(rng, n=40)
        eq = LmsEqualizer(n_taps=5)
        with pytest.raises(ConfigurationError):
            eq.fit_least_squares(received, desired, ridge=-1.0)

    def test_training_too_short(self):
        eq = LmsEqualizer(n_taps=9)
        with pytest.raises(ConfigurationError):
            eq.fit_least_squares(np.ones(4, complex), np.ones(4, complex))

    def test_length_mismatch(self):
        eq = LmsEqualizer(n_taps=3)
        with pytest.raises(ConfigurationError):
            eq.fit_least_squares(np.ones(8, complex), np.ones(7, complex))


class TestInversion:
    def test_inverse_channel_reapplies_isi(self, rng):
        received, desired, channel = make_training(rng, n=400)
        eq = LmsEqualizer(n_taps=7)
        eq.fit_least_squares(received, desired)
        rebuilt_channel = eq.inverse_channel(length=21)
        redistorted = rebuilt_channel.apply(desired)
        core = slice(30, -30)
        assert np.mean(np.abs(redistorted[core] - received[core]) ** 2) \
            < 0.02

    def test_default_construction_is_identity(self):
        eq = LmsEqualizer(n_taps=5)
        x = np.arange(10, dtype=complex)
        assert np.allclose(eq.equalize(x), x)

    def test_bad_tap_count(self):
        with pytest.raises(ConfigurationError):
            LmsEqualizer(n_taps=0)
