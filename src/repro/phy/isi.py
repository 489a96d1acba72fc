"""Inter-symbol interference: multipath FIR channels and their inversion.

§3.1.3: neighbouring symbols affect each other; receivers run a linear
equalizer to undo it. §4.2.4(d): when *re-encoding* a chunk, ZigZag must
re-apply those distortions — "we can take the filter from the decoder and
invert it". We model ISI as a short complex FIR filter and provide a
regularized inverse so either direction (distort / equalize) is available.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.phy.pulse import SPS

__all__ = ["IsiFilter", "default_isi_taps", "invert_fir"]


def default_isi_taps(strength: float = 0.15) -> np.ndarray:
    """A two-sided multipath profile: pre-echo + main + post-echoes.

    ``strength`` scales the echo amplitudes; 0 yields a pure delta. Echoes
    sit at multiples of the symbol duration — sub-symbol delay spread is
    largely absorbed by the matched filter and does not cause genuine
    inter-*symbol* interference.
    """
    if strength < 0:
        raise ConfigurationError("ISI strength must be non-negative")
    taps = np.zeros(3 * SPS + 1, dtype=complex)
    taps[0] = 0.35 * strength * np.exp(1j * 0.4)        # -1 symbol
    taps[SPS] = 1.0                                      # main
    taps[2 * SPS] = 0.8 * strength * np.exp(-1j * 0.9)   # +1 symbol
    taps[3 * SPS] = 0.25 * strength * np.exp(1j * 1.7)   # +2 symbols
    return taps / np.abs(taps).max()


def invert_fir(taps, length: int = 33, regularization: float = 1e-3) -> np.ndarray:
    """Truncated inverse of an FIR filter via regularized FFT division.

    Returns *length* taps ``g`` such that ``taps * g ≈ delta`` (centered).
    The regularization keeps the inverse bounded when the channel has
    spectral nulls.
    """
    h = np.asarray(taps, dtype=complex).ravel()
    if h.size == 0:
        raise ConfigurationError("cannot invert an empty filter")
    if length < h.size:
        raise ConfigurationError("inverse length must be >= filter length")
    n_fft = 4 * int(2 ** np.ceil(np.log2(length + h.size)))
    spectrum = np.fft.fft(h, n_fft)
    inv_spectrum = np.conj(spectrum) / (np.abs(spectrum) ** 2 + regularization)
    impulse = np.fft.ifft(inv_spectrum)
    # h's main tap sits at circular delay +main, so the inverse response
    # concentrates around circular delay -main; window the extraction
    # there so the returned taps hold the energy regardless of where the
    # input filter's cursor was.
    main = int(np.argmax(np.abs(h)))
    half = length // 2
    indices = (np.arange(length) - half - main) % n_fft
    return impulse[indices]


@dataclass
class IsiFilter:
    """A complex FIR channel with main-tap-aligned "same"-length filtering.

    The main tap (largest magnitude) is treated as the zero-delay reference,
    so ``apply`` preserves alignment between input and output symbol
    indices — essential for ZigZag's subtraction step.
    """

    taps: np.ndarray
    main_tap: int = field(init=False)

    def __post_init__(self) -> None:
        taps = np.asarray(self.taps, dtype=complex).ravel()
        if taps.size == 0:
            raise ConfigurationError("ISI filter needs at least one tap")
        object.__setattr__(self, "taps", taps)
        object.__setattr__(self, "main_tap", int(np.argmax(np.abs(taps))))

    @classmethod
    def identity(cls) -> "IsiFilter":
        return cls(np.array([1.0 + 0j]))

    @property
    def is_identity(self) -> bool:
        return self.taps.size == 1 and self.taps[0] == 1.0

    def apply(self, signal) -> np.ndarray:
        """Filter *signal*, keeping length and main-tap alignment."""
        sig = np.asarray(signal, dtype=complex).ravel()
        if sig.size == 0:
            return sig
        full = np.convolve(sig, self.taps)
        start = self.main_tap
        return full[start:start + sig.size]

    def inverse(self, length: int = 33,
                regularization: float = 1e-3) -> "IsiFilter":
        """The (truncated, regularized) equalizer undoing this channel."""
        return IsiFilter(invert_fir(self.taps, length, regularization))
