"""ChannelEstimate and noise-floor estimation tests (§4.2.4)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.phy.estimation import ChannelEstimate, estimate_noise_power
from repro.phy.noise import awgn


class TestChannelEstimate:
    def test_with_gain(self):
        est = ChannelEstimate(1.0, 0.0, 0.0, 10.0)
        assert est.with_gain(3.0).gain == 3.0


class TestNoiseEstimation:
    def test_quiet_span(self, rng):
        signal = np.concatenate([awgn(100, 2.0, rng),
                                 10 * np.ones(100, complex)])
        power = estimate_noise_power(signal, quiet_span=slice(0, 100))
        assert power == pytest.approx(2.0, rel=0.25)

    def test_blind_estimate_ignores_bursts(self, rng):
        noise = awgn(1000, 1.0, rng)
        signal = noise.copy()
        signal[300:600] += 20.0  # a strong packet in the middle
        power = estimate_noise_power(signal)
        assert power == pytest.approx(1.0, rel=0.4)

    def test_empty_quiet_span_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            estimate_noise_power(awgn(10, 1.0, rng),
                                 quiet_span=slice(5, 5))
