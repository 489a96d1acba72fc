"""Re-encoding decoded chunks into channel images for subtraction (§4.2.3b).

"Now that the AP knows the symbols that Alice sent in chunk 1, it uses this
knowledge to create an estimate of how these symbols would look after
traversing Alice's channel to the AP."

The image of a chunk is built by (1) applying the symbol-domain ISI
estimate (the inverted equalizer, §4.2.4d), (2) pulse-shaping at the
transmit RRC, (3) fractionally delaying onto the capture's sample grid
(§4.2.3b's Nyquist interpolation), and (4) multiplying by the complex gain
and frequency-offset phase ramp (Eq. 4.1). Because every operation is
linear in the symbols, chunk images computed independently superpose
exactly — the engine subtracts them incrementally as chunks decode.

Hot-path note: steps (2) and (3) are both LTI, so their kernels compose —
we cache ``RRC ⊛ fractional-delay`` per sub-sample fraction and build each
chunk image with a single convolution of the upsampled symbols. The phase
ramp is assembled from cached per-frequency rotation powers into a reused
scratch buffer instead of evaluating trigonometry per chunk.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.phy.estimation import ChannelEstimate
from repro.phy.isi import IsiFilter
from repro.phy.pulse import DELAY, SHAPER, SPS
from repro.phy.resample import sinc_kernel

__all__ = ["Reencoder"]

# Half-width, in samples, of the windowed-sinc fractional delay that puts
# an image on the capture's sample grid; the batched re-encoder uses it
# too.
DELAY_HALF_WIDTH = 6


@dataclass
class Reencoder:
    """Builds channel images of decoded symbols for one (packet, capture).

    Parameters
    ----------
    estimate:
        Channel estimate whose model is
        ``rx[k] = gain * sym[k] * exp(j 2π f (start + SPS k))``.
    start:
        Fractional sample position of the packet's symbol 0 pulse centre in
        the *target* capture buffer.
    symbol_isi:
        Optional symbol-domain ISI taps (an :class:`IsiFilter`) — the
        inverse of the trained equalizer, when ISI compensation is active.
    """

    estimate: ChannelEstimate
    start: float
    symbol_isi: IsiFilter | None = None
    _frac_cache: dict = field(default_factory=dict, repr=False)
    _power_cache: dict = field(default_factory=dict, repr=False)
    _ramp_scratch: np.ndarray | None = field(default=None, repr=False)

    def _composed_kernel(self, frac: float) -> np.ndarray:
        """``RRC ⊛ fractional-delay`` taps for this sub-sample fraction.

        The pulse shaping and the fractional delay are both LTI filters, so
        chaining them equals convolving by their composed kernel once. The
        delay stage applies its taps correlation-style, hence the reversal.
        """
        key = int(frac * 1e9)  # 1e-9 merge grain, cheaper than round()
        kernel = self._frac_cache.get(key)
        if kernel is None:
            delay_taps = sinc_kernel(frac, DELAY_HALF_WIDTH)[::-1]
            composed = np.convolve(SHAPER.taps, delay_taps)
            # Stored pre-reversed so `image` can call np.correlate
            # directly (np.convolve would re-flip the kernel every chunk).
            kernel = composed[::-1].copy()
            self._frac_cache[key] = kernel
        return kernel

    def _phase_ramp(self, base: int, size: int) -> np.ndarray:
        """``exp(2jπ f (base + k))`` for k < size, into reused scratch.

        The per-sample rotation ``exp(2jπ f)^k`` depends only on the
        frequency estimate, so its cumulative powers are cached per
        frequency and each chunk needs just one scalar rotation and one
        scalar-vector multiply — no per-chunk trigonometry. Cumulative
        products drift by O(k·eps) ≈ 1e-13 over thousand-sample packets,
        far inside the subtraction accuracy the estimates themselves allow.
        """
        freq = self.estimate.freq_offset
        powers = self._power_cache.get(freq)
        if powers is None or powers.size < size:
            capacity = max(size, 256,
                           0 if powers is None else 2 * powers.size)
            steps = np.full(capacity, cmath.exp(2j * math.pi * freq))
            steps[0] = 1.0 + 0j
            powers = np.cumprod(steps)
            self._power_cache[freq] = powers
        if self._ramp_scratch is None or self._ramp_scratch.size < size:
            self._ramp_scratch = np.empty(max(size, 256), dtype=complex)
        ramp = self._ramp_scratch[:size]
        np.multiply(powers[:size], cmath.exp(2j * math.pi * freq * base),
                    out=ramp)
        return ramp

    def image(self, symbols, i0: int) -> tuple[np.ndarray, int]:
        """Channel image of chunk *symbols* occupying indices [i0, i0+K).

        Returns ``(segment, base)``: add ``segment`` at ``buffer[base:]``.
        The segment includes the pulse tails on both sides of the chunk.
        """
        d = np.asarray(symbols, dtype=complex).ravel()
        if d.size == 0:
            raise ConfigurationError("cannot re-encode an empty chunk")
        j0 = i0
        if self.symbol_isi is not None and not self.symbol_isi.is_identity:
            taps = self.symbol_isi.taps
            d = np.convolve(d, taps)
            j0 = i0 - self.symbol_isi.main_tap
        # Sample m of the shaped-and-delayed wave sits at target position
        #   start + SPS*j0 - DELAY - pad + m  (fractional), where
        # pad = half_width + 1 zeros keep the interpolation tails — chunk
        # images must superpose exactly (linearity is what makes
        # incremental subtraction correct).
        pad = DELAY_HALF_WIDTH + 1
        position = (self.start + SPS * j0 - DELAY - pad)
        base = math.floor(position)
        frac = position - base
        kernel = self._composed_kernel(frac)
        upsampled = np.zeros((d.size - 1) * SPS + 1, dtype=complex)
        upsampled[::SPS] = d
        # correlate(x, k_rev, 'full') == convolve(x, k); the kernel is
        # cached reversed, and k is real so the implicit conjugate is free.
        segment = np.correlate(upsampled, kernel, "full")
        # The composed kernel spans one sample less on each side than the
        # two-stage (pad + fractional-delay FIR) layout it replaced, whose
        # first and last samples were identically zero — so the segment
        # simply starts one sample later.
        base += 1
        ramp = self._phase_ramp(base, segment.size)
        np.multiply(segment, ramp, out=segment)
        np.multiply(segment, self.estimate.gain, out=segment)
        return segment, base

    def core_slice(self, i0: int, i1: int, base: int,
                   segment_len: int) -> slice:
        """Slice of an image segment covering only the chunk's symbol
        centres (pulse tails excluded) — the region used for the §4.2.4(b)
        amplitude/phase error measurement."""
        first = int(np.floor(self.start + SPS * i0)) - base
        last = int(np.ceil(self.start + SPS * (i1 - 1))) - base
        first = max(first, 0)
        last = min(last + 1, segment_len)
        return slice(first, last)


def subtract_segment(buffer: np.ndarray, segment: np.ndarray,
                     base: int) -> None:
    """In-place ``buffer[base:base+len] -= segment`` with edge clipping."""
    lo = max(base, 0)
    hi = min(base + segment.size, buffer.size)
    if hi <= lo:
        return
    buffer[lo:hi] -= segment[lo - base: hi - base]


def add_segment(buffer: np.ndarray, segment: np.ndarray, base: int) -> None:
    """In-place ``buffer[base:base+len] += segment`` with edge clipping."""
    lo = max(base, 0)
    hi = min(base + segment.size, buffer.size)
    if hi <= lo:
        return
    buffer[lo:hi] += segment[lo - base: hi - base]
