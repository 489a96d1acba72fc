"""Bit-stream <-> symbol-stream conversion on top of a constellation.

The :class:`Modulator` is the "standard encoder/decoder" that ZigZag uses as
a black box (§4.2.3a): it pads bit streams to a whole number of symbols,
produces complex baseband symbols at one sample per symbol, and demodulates
with either hard decisions or externally-supplied soft symbol estimates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.phy.constellation import Constellation
from repro.utils.bits import as_bit_array

__all__ = ["Modulator"]


@dataclass(frozen=True)
class Modulator:
    """Maps framed bits to unit-energy complex symbols and back.

    Parameters
    ----------
    constellation:
        The :class:`Constellation` to map onto.
    """

    constellation: Constellation

    @property
    def bits_per_symbol(self) -> int:
        return self.constellation.bits_per_symbol

    def pad_bits(self, bits) -> np.ndarray:
        """Zero-pad *bits* up to a whole number of symbols."""
        arr = as_bit_array(bits)
        k = self.bits_per_symbol
        remainder = arr.size % k
        if remainder == 0:
            return arr
        return np.concatenate([arr, np.zeros(k - remainder, dtype=np.uint8)])

    def modulate(self, bits) -> np.ndarray:
        """Bits -> complex symbols (padding with zero bits if needed)."""
        return self.constellation.modulate(self.pad_bits(bits))

    def demodulate(self, symbols, n_bits: int | None = None) -> np.ndarray:
        """Symbols -> bits; optionally truncate padding to *n_bits*."""
        bits = self.constellation.demodulate(symbols)
        if n_bits is not None:
            if n_bits > bits.size:
                raise ConfigurationError(
                    f"requested {n_bits} bits but only {bits.size} demodulated"
                )
            bits = bits[:n_bits]
        return bits
