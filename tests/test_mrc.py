"""Maximal ratio combining tests, including the paper's footnote example."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.phy.constellation import BPSK
from repro.receiver.mrc import mrc_combine


class TestCombine:
    def test_paper_footnote_example(self):
        """§4.1 footnote: receptions -0.2 and +0.5 combine to +0.15 -> '1'."""
        combined = mrc_combine([[-0.2 + 0j], [0.5 + 0j]])
        assert combined[0] == pytest.approx(0.15)
        assert BPSK.demodulate(combined).tolist() == [1]

    def test_weights(self):
        combined = mrc_combine([[1.0 + 0j], [0.0 + 0j]], weights=[3, 1])
        assert combined[0] == pytest.approx(0.75)

    def test_per_symbol_weights(self):
        streams = [np.array([1.0, 1.0], complex),
                   np.array([-1.0, -1.0], complex)]
        weights = [1.0, np.array([0.0, 3.0])]
        combined = mrc_combine(streams, weights)
        assert combined[0] == pytest.approx(1.0)
        assert combined[1] == pytest.approx(-0.5)

    def test_reduces_noise_variance(self, rng):
        truth = BPSK.modulate(rng.integers(0, 2, 4000))
        copies = [truth + 0.8 * (rng.standard_normal(4000)
                                 + 1j * rng.standard_normal(4000))
                  for _ in range(2)]
        single_err = np.mean(BPSK.demodulate(copies[0])
                             != BPSK.demodulate(truth))
        combined_err = np.mean(BPSK.demodulate(mrc_combine(copies))
                               != BPSK.demodulate(truth))
        assert combined_err < single_err

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            mrc_combine([])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            mrc_combine([np.ones(3, complex), np.ones(4, complex)])

    def test_weight_count_mismatch(self):
        with pytest.raises(ConfigurationError):
            mrc_combine([np.ones(3, complex)], weights=[1, 2])

    def test_zero_total_weight_rejected(self):
        with pytest.raises(ConfigurationError):
            mrc_combine([np.ones(2, complex)], weights=[0.0])
