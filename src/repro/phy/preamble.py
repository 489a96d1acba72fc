"""Pseudo-random packet preambles (§4.2.1).

Every 802.11 packet starts with a known preamble; ZigZag's collision
detector relies on the preamble being "a pseudo-random sequence that is
independent of shifted versions of itself, as well as Alice's and Bob's
data". We generate preambles from a maximal-length LFSR (m-sequence), which
has exactly this property: its periodic autocorrelation is L at lag 0 and
-1 elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["Preamble", "default_preamble", "lfsr_sequence"]

# Primitive polynomial taps (Fibonacci LFSR) by register length.
_PRIMITIVE_TAPS = {
    5: (5, 3),
    6: (6, 5),
    7: (7, 6),
    8: (8, 6, 5, 4),
    9: (9, 5),
    10: (10, 7),
    11: (11, 9),
}


def lfsr_sequence(n_bits: int, order: int = 7,
                  seed_state: int = 0b1010101) -> np.ndarray:
    """Generate *n_bits* of a maximal-length LFSR sequence of given *order*."""
    if order not in _PRIMITIVE_TAPS:
        raise ConfigurationError(
            f"unsupported LFSR order {order}; choose from {sorted(_PRIMITIVE_TAPS)}"
        )
    if n_bits <= 0:
        raise ConfigurationError("n_bits must be positive")
    state = seed_state & ((1 << order) - 1)
    if state == 0:
        raise ConfigurationError("LFSR seed state must be non-zero")
    taps = _PRIMITIVE_TAPS[order]
    mask = (1 << order) - 1
    out = np.empty(n_bits, dtype=np.uint8)
    for i in range(n_bits):
        out[i] = (state >> (order - 1)) & 1
        feedback = 0
        for t in taps:
            feedback ^= (state >> (t - 1)) & 1
        state = ((state << 1) | feedback) & mask
    return out


@dataclass(frozen=True)
class Preamble:
    """A known BPSK preamble: ±1 complex symbols derived from a PN sequence.

    The preamble is always BPSK regardless of the payload modulation, as in
    802.11 where the PLCP preamble/header are sent at the base rate.
    """

    bits: np.ndarray
    symbols: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        bits = np.asarray(self.bits, dtype=np.uint8)
        if bits.ndim != 1 or bits.size == 0:
            raise ConfigurationError("preamble bits must be a non-empty 1-D array")
        object.__setattr__(self, "bits", bits)
        symbols = (2.0 * bits.astype(float) - 1.0).astype(complex)
        object.__setattr__(self, "symbols", symbols)

    @classmethod
    def from_length(cls, length: int, order: int = 7,
                    seed_state: int = 0b1010101) -> "Preamble":
        """Build a preamble of *length* symbols from an m-sequence."""
        return cls(lfsr_sequence(length, order=order, seed_state=seed_state))

    def __len__(self) -> int:
        return self.symbols.size


def default_preamble(length: int = 32) -> Preamble:
    """The library-wide default preamble (32 symbols, like the paper's 32-bit)."""
    return Preamble.from_length(length)
