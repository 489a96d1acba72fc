"""Root-raised-cosine pulse shaping and matched-filter symbol sampling.

The paper's GNURadio configuration runs 2 samples per symbol (§5.1c); we do
the same. Symbols are shaped with a unit-energy RRC pulse at ``SPS`` samples
per symbol; the receiver recovers symbol-rate soft values by correlating the
received samples against the same pulse centred on each (possibly
fractional) symbol instant — this single operation is simultaneously the
matched filter, the downsampler, and the §4.2.3(b) band-limited interpolator
("summation over few symbols in the neighborhood of n").

Because the shaped signal occupies only ``(1 + ROLLOFF) / (2 SPS)`` of the
sample-rate band, fractional delays are far inside Nyquist and short
kernels are accurate — unlike critically-sampled streams.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["DELAY", "ROLLOFF", "SHAPER", "SPS", "SPAN", "rrc_function",
           "PulseShaper", "MatchedSampler"]

# The one air interface's pulse: RRC at SPS samples per symbol with
# roll-off ROLLOFF, truncated to ±SPAN symbols.
SPS = 2
SPAN = 6
ROLLOFF = 0.35
# Group delay: sample index of symbol 0's pulse centre in a shaped
# waveform.
DELAY = SPAN * SPS

# Fractional-offset kernels a shaper keeps before it starts over.
_KERNEL_CACHE_SIZE = 4096


def rrc_function(t) -> np.ndarray:
    """Continuous root-raised-cosine impulse response h(t), T = 1 symbol,
    roll-off :data:`ROLLOFF`.

    Handles the removable singularities at t = 0 and t = ±1/(4 ROLLOFF).
    Unnormalized (normalize discrete taps instead).
    """
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    eps = 1e-9

    at_zero = np.abs(t) < eps
    out[at_zero] = 1.0 - ROLLOFF + 4.0 * ROLLOFF / np.pi

    singular = np.abs(np.abs(t) - 1.0 / (4.0 * ROLLOFF)) < eps
    out[singular] = (ROLLOFF / np.sqrt(2.0)) * (
        (1.0 + 2.0 / np.pi) * np.sin(np.pi / (4.0 * ROLLOFF))
        + (1.0 - 2.0 / np.pi) * np.cos(np.pi / (4.0 * ROLLOFF))
    )

    regular = ~(at_zero | singular)
    tr = t[regular]
    numerator = (np.sin(np.pi * tr * (1.0 - ROLLOFF))
                 + 4.0 * ROLLOFF * tr * np.cos(np.pi * tr * (1.0 + ROLLOFF)))
    denominator = np.pi * tr * (1.0 - (4.0 * ROLLOFF * tr) ** 2)
    out[regular] = numerator / denominator
    return out


class PulseShaper:
    """Upsample-and-filter transmitter pulse shaping with the RRC pulse.

    ``shape(symbols)`` returns the waveform with symbol k centred at sample
    ``DELAY + k*SPS``. The one instance is :data:`SHAPER`: its kernel
    cache is process-wide.
    """

    def __init__(self) -> None:
        # Unit-energy taps spanning ±SPAN symbols, and the scale between
        # them and the continuous prototype, used by kernel_at to build
        # fractional-offset kernels consistently.
        raw = rrc_function(np.arange(-DELAY, DELAY + 1) / SPS)
        self._scale = 1.0 / np.sqrt(float(np.sum(raw ** 2)))
        self.taps = raw / np.sqrt(np.sum(raw ** 2))
        self._kernel_cache: dict = {}

    def waveform_length(self, n_symbols: int) -> int:
        if n_symbols < 1:
            raise ConfigurationError("need at least one symbol")
        return (n_symbols - 1) * SPS + 2 * DELAY + 1

    def shape(self, symbols) -> np.ndarray:
        """Symbols -> complex baseband waveform at ``SPS`` samples/symbol."""
        d = np.asarray(symbols, dtype=complex).ravel()
        if d.size == 0:
            raise ConfigurationError("cannot shape an empty symbol stream")
        upsampled = np.zeros((d.size - 1) * SPS + 1, dtype=complex)
        upsampled[::SPS] = d
        return np.convolve(upsampled, self.taps)

    def kernel_at(self, fraction: float) -> np.ndarray:
        """Matched-filter taps centred ``fraction`` samples off-grid.

        ``kernel_at(f)[j]`` is h((j - DELAY + f)/SPS): correlating the
        received samples against this kernel evaluates the matched filter
        output at position ``center - f``; callers pass ``f = -frac`` to
        sample *later* than the integer grid.

        Kernels are cached per fraction: a stream decoder re-samples at the
        same sub-sample offset for every chunk of a packet, and evaluating
        the RRC prototype dominates ``MatchedSampler.sample`` otherwise.
        """
        # int() quantization: same 1e-12 merge grain as round(f, 12) at a
        # fraction of the cost (this lookup runs once per sample() call).
        key = int(fraction * 1e12)
        kernel = self._kernel_cache.get(key)
        if kernel is None:
            if len(self._kernel_cache) >= _KERNEL_CACHE_SIZE:
                # Shapers are shared across Monte-Carlo trials and every
                # trial draws new sub-sample offsets; bound the cache so
                # million-trial runs cannot grow it without limit.
                self._kernel_cache.clear()
            j = np.arange(-DELAY, DELAY + 1)
            kernel = rrc_function((j + fraction) / SPS) * self._scale
            kernel.setflags(write=False)
            self._kernel_cache[key] = kernel
        return kernel

    def kernels_at(self, fractions) -> list[np.ndarray]:
        """:meth:`kernel_at` for each of *fractions*, in order, with one
        RRC evaluation for all the kernels the cache is missing.

        The cache sees the same keys, insertions and clears as one
        ``kernel_at`` call per fraction, so every kernel returned, and
        every kernel left in the cache, is the one those calls give.
        (``kernel_at`` keeps its own miss path: a lone fraction, as a
        decoder or a one-candidate acquisition asks for, costs less
        there.)
        """
        cache = self._kernel_cache
        kernels: list = []
        fresh: list[tuple[int, float]] = []
        for fraction in fractions:
            key = int(fraction * 1e12)
            kernel = cache.get(key)
            if kernel is None:
                if len(cache) >= _KERNEL_CACHE_SIZE:
                    cache.clear()
                # A placeholder: the row of the evaluation below.
                kernel = cache[key] = len(fresh)
                fresh.append((key, fraction))
            kernels.append(kernel)
        if not fresh:
            return kernels
        j = np.arange(-DELAY, DELAY + 1)
        column = np.array([fraction for _, fraction in fresh])[:, None]
        rows = rrc_function((j + column) / SPS) * self._scale
        rows.setflags(write=False)
        for row, (key, _) in enumerate(fresh):
            # A clear later in the loop may have dropped this placeholder
            # (and a repeat re-added the key under a later row).
            placeholder = cache.get(key)
            if isinstance(placeholder, int) and placeholder == row:
                cache[key] = rows[row]
        return [rows[k] if isinstance(k, int) else k for k in kernels]


SHAPER = PulseShaper()


class MatchedSampler:
    """Matched filter + fractional symbol-instant sampler (one operation),
    against :data:`SHAPER`'s pulse."""

    def sample(self, signal, start: float, count: int) -> np.ndarray:
        """Matched-filter outputs at ``start + k*SPS`` for k = 0..count-1.

        *start* is the (fractional) sample position of symbol 0's pulse
        centre in *signal*. For a unit-gain channel the outputs equal the
        transmitted symbols plus white noise of the original sample-domain
        variance (the RRC pair is Nyquist).
        """
        if count < 0:
            raise ConfigurationError("count must be non-negative")
        y = np.asarray(signal, dtype=complex).ravel()
        if count == 0:
            return np.zeros(0, dtype=complex)
        base = math.floor(start)
        frac = start - base
        kernel = SHAPER.kernel_at(-frac)
        first = base - DELAY
        padded, shift = _zero_extended(
            y, first, base + (count - 1) * SPS + DELAY)
        # Every output symbol reads the same kernel against a window that
        # advances by `SPS` samples, i.e. a matrix-vector product against a
        # strided view of the padded buffer — one call, no Python per-tap
        # loop, no data copied.
        windows = _windows(padded, first + shift, count, kernel.size)
        return windows @ kernel

    def sample_many(self, signal, starts, count: int) -> np.ndarray:
        """:meth:`sample` at each of *starts*: row i equals
        ``sample(signal, starts[i], count)`` exactly.

        The kernels come from one :meth:`PulseShaper.kernels_at` call in
        *starts* order, and the starts that share an integer part read
        one strided window view in one stacked product.
        """
        if count < 0:
            raise ConfigurationError("count must be non-negative")
        if len(starts) == 1:
            return self.sample(signal, starts[0], count)[None]
        y = np.asarray(signal, dtype=complex).ravel()
        if not len(starts) or count == 0:
            return np.zeros((len(starts), count), dtype=complex)
        bases = [math.floor(start) for start in starts]
        kernels = SHAPER.kernels_at(
            [-(start - base) for start, base in zip(starts, bases)])
        padded, shift = _zero_extended(
            y, min(bases) - DELAY, max(bases) + (count - 1) * SPS + DELAY)
        order = sorted(range(len(starts)), key=bases.__getitem__)
        stack = np.array([kernels[i] for i in order])[:, :, None]
        out = np.empty((len(starts), count, 1), dtype=complex)
        end = 0
        for base, run in itertools.groupby(order, key=bases.__getitem__):
            begin, end = end, end + len(list(run))
            windows = _windows(padded, base - DELAY + shift, count,
                               stack.shape[1])
            # A stack of matrix-vector products, not one matrix product:
            # each output then sums its taps in order as sample() does,
            # where a matrix product may go to BLAS and round otherwise.
            np.matmul(windows, stack[begin:end], out=out[begin:end])
        out = out[:, :, 0]
        if order != list(range(len(order))):
            out = out[np.argsort(order)]
        return out


def _zero_extended(y: np.ndarray, first: int,
                   last: int) -> tuple[np.ndarray, int]:
    """*y* with zeros added so that samples *first* .. *last* exist, and
    the index of ``y[0]`` in the result."""
    pad_left = max(0, -first)
    pad_right = max(0, last + 1 - y.size)
    if pad_left or pad_right:
        y = np.concatenate([
            np.zeros(pad_left, dtype=complex), y,
            np.zeros(pad_right, dtype=complex),
        ])
    return y, pad_left


def _windows(padded: np.ndarray, origin: int, count: int,
             taps: int) -> np.ndarray:
    """The ``(count, taps)`` view of *padded* whose row k starts at
    sample ``origin + k*SPS``. (Direct np.ndarray construction rather
    than as_strided: this runs once per decoded chunk and the wrapper
    overhead is measurable.)"""
    stride = padded.strides[0]
    return np.ndarray((count, taps), dtype=padded.dtype, buffer=padded,
                      offset=origin * stride, strides=(SPS * stride, stride))
