"""Windowed-sinc interpolation and fractional delay tests (§4.2.3b)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.phy.resample import FractionalDelay, sinc_kernel


def narrowband(n, freqs=(0.07, -0.11)):
    t = np.arange(n, dtype=float)
    return sum(np.exp(2j * np.pi * f * t) for f in freqs)


def narrowband_at(t, freqs=(0.07, -0.11)):
    t = np.asarray(t, dtype=float)
    return sum(np.exp(2j * np.pi * f * t) for f in freqs)


class TestKernel:
    def test_zero_fraction_is_identityish(self):
        taps = sinc_kernel(0.0, 4)
        assert taps[4] == pytest.approx(1.0, abs=1e-6)
        assert np.allclose(np.delete(taps, 4), 0.0, atol=1e-6)

    def test_dc_gain_unity(self):
        for frac in (-0.4, 0.13, 0.5):
            assert np.sum(sinc_kernel(frac, 6)) == pytest.approx(1.0)

    def test_bad_half_width(self):
        with pytest.raises(ConfigurationError):
            sinc_kernel(0.1, 0)


class TestInterpolation:
    @given(st.floats(-0.49, 0.49))
    @settings(max_examples=20, deadline=None)
    def test_fraction_property(self, frac):
        """The kernel's taps evaluate a band-limited signal between its
        samples: x(40 + frac) from x[32..48]."""
        x = narrowband(80)
        out = np.dot(sinc_kernel(-frac, 8), x[32:49])
        assert abs(out - narrowband_at(40 + frac)) < 5e-3


class TestFractionalDelay:
    def test_delays_signal(self):
        x = narrowband(200)
        for d in (0.25, 0.5, 1.3, -0.7):
            out = FractionalDelay(d, half_width=6).apply(x)
            expected = narrowband_at(np.arange(200) - d)
            core = slice(12, -12)
            assert np.allclose(out[core], expected[core], atol=3e-3), d

    def test_zero_delay_identity(self):
        x = narrowband(50)
        out = FractionalDelay(0.0).apply(x)
        assert np.allclose(out, x, atol=1e-6)

    def test_empty_input(self):
        assert FractionalDelay(0.3).apply(np.zeros(0, complex)).size == 0

    def test_composition(self):
        """Delaying by a then b approximates delaying by a+b."""
        x = narrowband(200)
        ab = FractionalDelay(0.6, 8).apply(FractionalDelay(0.7, 8).apply(x))
        direct = FractionalDelay(1.3, 8).apply(x)
        assert np.allclose(ab[20:-20], direct[20:-20], atol=5e-3)
