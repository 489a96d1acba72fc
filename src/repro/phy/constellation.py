"""Linear memoryless modulations: BPSK, QPSK, 16-QAM, 64-QAM.

The paper's prototype uses BPSK (802.11 low rates), but ZigZag treats the
demodulator as a black box and explicitly claims independence from the
modulation scheme (§1, §4.2.3a), so we provide the square-QAM family used by
802.11a/g as well. All constellations are Gray-mapped and normalized to unit
average energy so SNR definitions are modulation-independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.bits import as_bit_array

__all__ = [
    "Constellation",
    "BPSK",
    "QPSK",
    "QAM16",
    "QAM64",
    "get_constellation",
]


def _gray(n: int) -> int:
    return n ^ (n >> 1)


def _pam_levels(bits_per_axis: int) -> np.ndarray:
    """Gray-mapped PAM amplitude levels for one I/Q axis, ascending order.

    ``levels[g]`` is the amplitude transmitted for Gray code ``g``.
    """
    m = 1 << bits_per_axis
    raw = np.arange(m)
    amplitudes = 2 * raw - (m - 1)  # ..., -3, -1, 1, 3, ...
    levels = np.empty(m, dtype=float)
    for idx, amp in zip(raw, amplitudes):
        levels[_gray(int(idx))] = amp
    return levels


@dataclass(frozen=True)
class Constellation:
    """A memoryless mapping between k-bit labels and complex points.

    Attributes
    ----------
    name:
        Human-readable identifier, e.g. ``"bpsk"``.
    bits_per_symbol:
        Number of bits carried per complex symbol.
    points:
        ``2**bits_per_symbol`` complex points, indexed by the integer value
        of the MSB-first bit label. Normalized to unit average energy.
    """

    name: str
    bits_per_symbol: int
    points: np.ndarray

    def __post_init__(self) -> None:
        expected = 1 << self.bits_per_symbol
        if self.points.shape != (expected,):
            raise ConfigurationError(
                f"{self.name}: need {expected} points, got {self.points.shape}"
            )

    @property
    def size(self) -> int:
        return self.points.size

    def modulate(self, bits) -> np.ndarray:
        """Map a bit array (length multiple of ``bits_per_symbol``) to symbols."""
        arr = as_bit_array(bits)
        k = self.bits_per_symbol
        if arr.size % k != 0:
            raise ConfigurationError(
                f"bit count {arr.size} not a multiple of {k} ({self.name})"
            )
        if arr.size == 0:
            return np.zeros(0, dtype=complex)
        groups = arr.reshape(-1, k)
        weights = 1 << np.arange(k - 1, -1, -1)
        indices = groups @ weights
        return self.points[indices]

    def hard_decision(self, symbols) -> np.ndarray:
        """Nearest-point decision; returns label indices."""
        sym = np.asarray(symbols, dtype=complex).ravel()
        # Distance to every constellation point; fine for M <= 64.
        dist = np.abs(sym[:, None] - self.points[None, :])
        return np.argmin(dist, axis=1)

    def demodulate(self, symbols) -> np.ndarray:
        """Hard-demodulate symbols back to an MSB-first bit array."""
        indices = self.hard_decision(symbols)
        k = self.bits_per_symbol
        shifts = np.arange(k - 1, -1, -1)
        bits = (indices[:, None] >> shifts[None, :]) & 1
        return bits.astype(np.uint8).ravel()

    def slice_symbols(self, symbols) -> np.ndarray:
        """Project noisy symbols onto the nearest constellation points."""
        return self.points[self.hard_decision(symbols)]

    def min_distance(self) -> float:
        """Minimum Euclidean distance between distinct points."""
        diffs = np.abs(self.points[:, None] - self.points[None, :])
        np.fill_diagonal(diffs, np.inf)
        return float(diffs.min())

    def conjugate(self) -> "Constellation":
        """The constellation with every point conjugated.

        Square QAM and PSK constellations are closed under conjugation, so
        this returns a constellation over the same point *set* but with the
        label map adjusted; it is what backward (time-reversed) decoding
        operates on.
        """
        return Constellation(self.name + "*", self.bits_per_symbol,
                             np.conj(self.points))

    def __reduce__(self):
        # Registered constellations unpickle to the module singletons, so
        # identity checks (``spec.body_constellation is BPSK``) survive a
        # trip through a process pool. Others (``"bpsk*"``) go by value.
        if _REGISTRY.get(self.name) is self:
            return get_constellation, (self.name,)
        return Constellation, (self.name, self.bits_per_symbol, self.points)


def _make_bpsk() -> Constellation:
    # Paper Ch.3: "0" -> e^{j*pi} = -1, "1" -> e^{j0} = +1.
    return Constellation("bpsk", 1, np.array([-1.0 + 0j, 1.0 + 0j]))


def _make_qpsk() -> Constellation:
    # Gray-mapped 4-QAM: one bit per axis, unit average energy.
    levels = _pam_levels(1) / np.sqrt(2.0)
    points = np.empty(4, dtype=complex)
    for label in range(4):
        i_bit = (label >> 1) & 1
        q_bit = label & 1
        points[label] = levels[i_bit] + 1j * levels[q_bit]
    return Constellation("qpsk", 2, points)


def _make_square_qam(bits_per_symbol: int, name: str) -> Constellation:
    half = bits_per_symbol // 2
    levels = _pam_levels(half)
    m = 1 << bits_per_symbol
    points = np.empty(m, dtype=complex)
    for label in range(m):
        i_gray = label >> half
        q_gray = label & ((1 << half) - 1)
        points[label] = levels[i_gray] + 1j * levels[q_gray]
    energy = np.mean(np.abs(points) ** 2)
    return Constellation(name, bits_per_symbol, points / np.sqrt(energy))


BPSK = _make_bpsk()
QPSK = _make_qpsk()
QAM16 = _make_square_qam(4, "qam16")
QAM64 = _make_square_qam(6, "qam64")

_REGISTRY = {c.name: c for c in (BPSK, QPSK, QAM16, QAM64)}


@lru_cache(maxsize=None)
def get_constellation(name: str) -> Constellation:
    """Look up a constellation by name (``bpsk``/``qpsk``/``qam16``/``qam64``)."""
    try:
        return _REGISTRY[name.lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown constellation {name!r}; choose from {sorted(_REGISTRY)}"
        ) from None
