"""Medium/synthesis tests: superposition, offsets, ground truth."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.phy.channel import ChannelParams
from repro.phy.medium import Transmission, synthesize


class TestTransmission:
    def test_from_symbols_positions(self, shaper, rng):
        sym = (2 * rng.integers(0, 2, 40) - 1).astype(complex)
        t = Transmission.from_symbols(sym, shaper, ChannelParams(), 17, "x")
        assert t.symbol0 == 17 + shaper.delay
        assert t.n_symbols == 40
        assert t.end == 17 + shaper.waveform_length(40)
        # An already-shaped waveform is placed by the same rule.
        placed = Transmission.from_waveform(shaper.shape(sym), sym.size,
                                            shaper, t.params, 17, "x")
        assert (placed.symbol0, placed.n_symbols, placed.label) == \
            (t.symbol0, t.n_symbols, t.label)
        assert np.array_equal(placed.samples, t.samples)

    def test_negative_offset_rejected(self, shaper):
        with pytest.raises(ConfigurationError):
            Transmission.from_symbols(np.ones(4, complex), shaper,
                                      ChannelParams(), -1)

    def test_empty_samples_rejected(self):
        with pytest.raises(ConfigurationError):
            Transmission(np.zeros(0, complex), ChannelParams(), 0)


class TestSynthesize:
    def test_superposition_is_linear(self, shaper, rng):
        sym_a = (2 * rng.integers(0, 2, 30) - 1).astype(complex)
        sym_b = (2 * rng.integers(0, 2, 30) - 1).astype(complex)
        pa = ChannelParams(gain=2.0)
        pb = ChannelParams(gain=1.0 + 1j)
        ta = Transmission.from_symbols(sym_a, shaper, pa, 0, "a")
        tb = Transmission.from_symbols(sym_b, shaper, pb, 20, "b")
        cap = synthesize([ta, tb], 0.0, rng)
        assert np.allclose(cap.samples,
                           cap.clean_components[0] + cap.clean_components[1])

    def test_leading_shifts_everything(self, shaper, rng):
        sym = np.ones(10, complex)
        t = Transmission.from_symbols(sym, shaper, ChannelParams(), 5, "a")
        cap = synthesize([t], 0.0, rng, leading=8)
        assert cap.transmissions[0].offset == 13
        assert cap.transmissions[0].symbol0 == 13 + shaper.delay
        assert np.allclose(cap.samples[:8], 0.0)

    def test_noise_floor(self, shaper, rng):
        sym = np.ones(10, complex)
        t = Transmission.from_symbols(sym, shaper, ChannelParams(0j + 1e-9),
                                      0, "a")
        cap = synthesize([t], 4.0, rng, tail=5000)
        assert np.mean(np.abs(cap.samples) ** 2) == pytest.approx(4.0,
                                                                  rel=0.05)

    def test_collision_flag(self, shaper, rng):
        sym = np.ones(10, complex)
        one = [Transmission.from_symbols(sym, shaper, ChannelParams(), 0)]
        two = one + [Transmission.from_symbols(sym, shaper,
                                               ChannelParams(), 4)]
        assert not synthesize(one, 0.1, rng).is_collision
        assert synthesize(two, 0.1, rng).is_collision

    def test_requires_transmissions(self, rng):
        with pytest.raises(ConfigurationError):
            synthesize([], 1.0, rng)
