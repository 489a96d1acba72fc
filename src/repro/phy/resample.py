"""Band-limited (windowed-sinc) interpolation for fractional sampling offsets.

§4.2.3(b) of the paper: the AP must reconstruct a decoded chunk *as sampled
by its own ADC*, i.e. interpolate Alice's symbol stream at positions shifted
by the sampling offset μ. "Nyquist says that under these conditions, one can
interpolate the signal at any discrete position with complete accuracy ...
In practice, the above equation is approximated by taking the summation over
few symbols (about 8 symbols) in the neighborhood of n." We use a Hann-
windowed sinc kernel with a configurable half-width W (default 4 → 2W + 1
= 9 taps).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["sinc_kernel", "FractionalDelay"]


def sinc_kernel(fraction: float, half_width: int = 4) -> np.ndarray:
    """Windowed-sinc taps evaluating x(n - fraction) from x[n-W..n+W].

    Returns ``2*half_width + 1`` taps ``h[k]`` (k = -W..W) such that
    ``sum_k h[k] * x[n + k] ≈ x(n - fraction)``.
    """
    if half_width < 1:
        raise ConfigurationError("half_width must be >= 1")
    k = np.arange(-half_width, half_width + 1, dtype=float)
    # x(n - f) = sum_k x[n + k] sinc(k + f)
    taps = np.sinc(k + fraction)
    window = np.hanning(2 * half_width + 3)[1:-1]  # avoid zero endpoints
    taps = taps * window
    # Normalize DC gain so a constant signal passes through unchanged.
    return taps / np.sum(taps)


@dataclass
class FractionalDelay:
    """A fixed fractional delay applied as an FIR filter.

    ``apply(x)[n] ≈ x(n - delay)`` — positive delays shift the waveform
    *later* in time. Output has the same length as the input ("same"
    convolution), so the delay element composes cleanly inside
    :class:`repro.phy.channel.Channel`.
    """

    delay: float
    half_width: int = 4
    _taps: np.ndarray = field(init=False, repr=False)
    _int_delay: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._int_delay = int(np.floor(self.delay))
        frac = self.delay - self._int_delay
        self._taps = sinc_kernel(frac, self.half_width)

    def apply(self, signal) -> np.ndarray:
        sig = np.asarray(signal, dtype=complex).ravel()
        if sig.size == 0:
            return sig
        # Fractional part via windowed-sinc FIR:
        # out[n] = sum_k taps[k+W] * x[n + k], i.e. a correlation — one
        # "same"-style convolution against the flipped taps.
        w = self.half_width
        out = np.convolve(sig, self._taps[::-1])[w: w + sig.size]
        # Integer part: shift right (later) by int_delay samples.
        if self._int_delay > 0:
            out = np.concatenate([
                np.zeros(self._int_delay, dtype=complex),
                out[:-self._int_delay] if self._int_delay < out.size
                else np.zeros(0, dtype=complex),
            ])[:sig.size]
        elif self._int_delay < 0:
            shift = -self._int_delay
            out = np.concatenate([
                out[shift:], np.zeros(min(shift, sig.size), dtype=complex)
            ])[:sig.size]
        return out
