"""Preamble (m-sequence) tests: LFSR, symbols and autocorrelation."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.phy.preamble import PREAMBLE, Preamble, lfsr_sequence


class TestLfsr:
    def test_maximal_period(self):
        # Order-7 m-sequence repeats with period 2^7 - 1 = 127.
        seq = lfsr_sequence(254, order=7)
        assert np.array_equal(seq[:127], seq[127:254])
        assert not np.array_equal(seq[:63], seq[63:126])

    def test_balanced(self):
        seq = lfsr_sequence(127, order=7)
        assert abs(int(seq.sum()) - 64) <= 1

    def test_zero_seed_rejected(self):
        with pytest.raises(ConfigurationError):
            lfsr_sequence(10, order=7, seed_state=0)

    def test_unsupported_order(self):
        with pytest.raises(ConfigurationError):
            lfsr_sequence(10, order=3)


class TestPreamble:
    def test_symbols_are_plus_minus_one(self):
        p = PREAMBLE
        assert set(np.unique(p.symbols.real)) == {-1.0, 1.0}
        assert np.all(p.symbols.imag == 0)

    def test_autocorrelation_peak_dominates(self):
        p = PREAMBLE
        signal = np.concatenate([np.zeros(10, complex), p.symbols,
                                 np.zeros(10, complex)])
        # np.correlate(y, s)[d] = sum_k y[d+k] * conj(s[k]).
        values = np.abs(np.correlate(signal, p.symbols, mode="valid"))
        assert np.argmax(values) == 10
        assert values[10] == pytest.approx(32.0)
        side = max(v for i, v in enumerate(values) if abs(i - 10) > 1)
        assert values[10] > 2.5 * side

    def test_empty_bits_rejected(self):
        with pytest.raises(ConfigurationError):
            Preamble(np.array([], dtype=np.uint8))
