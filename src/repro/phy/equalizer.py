"""Linear equalization (§3.1.3) and its inversion for re-encoding (§4.2.4d).

The black-box decoder trains a short linear equalizer on the known preamble
(least-squares by default, optional LMS refinement) to undo multipath ISI.
ZigZag then *inverts* that equalizer to re-apply the channel's distortion
when reconstructing a chunk image: "we can take the filter from the decoder
and invert it."
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.phy.isi import IsiFilter, invert_fir

__all__ = ["LmsEqualizer"]


def _build_convolution_matrix(received: np.ndarray,
                              n_taps: int) -> np.ndarray:
    """Design matrix M with ``M @ taps == equalize(received)``.

    ``equalize`` computes ``np.convolve(y, taps)[half : half+N]`` whose n-th
    entry is ``sum_m taps[m] * y[n + half - m]``; column m of M is therefore
    the received signal shifted by ``half - m`` (zero padded).
    """
    n = received.size
    half = n_taps // 2
    padded = np.concatenate([
        np.zeros(n_taps, dtype=complex), received,
        np.zeros(n_taps, dtype=complex),
    ])
    matrix = np.empty((n, n_taps), dtype=complex)
    rows = np.arange(n)
    for m in range(n_taps):
        matrix[:, m] = padded[rows + half - m + n_taps]
    return matrix


@dataclass
class LmsEqualizer:
    """A fractionally-trained linear (FIR) equalizer.

    Parameters
    ----------
    n_taps:
        Filter length (odd recommended; the centre tap is the cursor).
    step:
        LMS step size for decision-directed refinement.
    """

    n_taps: int = 7
    step: float = 0.01
    taps: np.ndarray = field(default=None)

    def __post_init__(self) -> None:
        if self.n_taps < 1:
            raise ConfigurationError("equalizer needs at least one tap")
        if self.taps is None:
            taps = np.zeros(self.n_taps, dtype=complex)
            taps[self.n_taps // 2] = 1.0
            self.taps = taps
        else:
            self.taps = np.asarray(self.taps, dtype=complex).ravel()
            if self.taps.size != self.n_taps:
                raise ConfigurationError("taps length must equal n_taps")

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def fit_least_squares(self, received, desired,
                          ridge: float | None = None) -> None:
        """LS fit ``conv(received, taps) ≈ desired``, optionally ridged.

        This is the preamble-training path of the standard decoder: short
        training sequences favour a direct solve over slow LMS adaptation.
        *ridge* regularizes toward the identity filter (centre tap 1) —
        essential when training on a 32-symbol preamble at low SNR, where
        an unregularized solve fits noise and the resulting misadjustment
        dominates the post-equalizer error floor.
        """
        y = np.asarray(received, dtype=complex).ravel()
        d = np.asarray(desired, dtype=complex).ravel()
        if y.size != d.size:
            raise ConfigurationError("received/desired length mismatch")
        if y.size < self.n_taps:
            raise ConfigurationError("training sequence shorter than filter")
        matrix = _build_convolution_matrix(y, self.n_taps)
        identity = np.zeros(self.n_taps, dtype=complex)
        identity[self.n_taps // 2] = 1.0
        if ridge is None or ridge == 0.0:
            # LAPACK gelsd with singular values below eps·σ_max cut.
            solution, *_ = np.linalg.lstsq(matrix, d,
                                           rcond=np.finfo(float).eps)
        else:
            if ridge < 0:
                raise ConfigurationError("ridge must be non-negative")
            gram = matrix.conj().T @ matrix + ridge * np.eye(self.n_taps)
            rhs = matrix.conj().T @ (d - matrix @ identity)
            solution = identity + np.linalg.solve(gram, rhs)
        self.taps = solution

    def adapt_lms(self, received, desired) -> None:
        """One LMS pass over a (received, desired) training pair sequence."""
        y = np.asarray(received, dtype=complex).ravel()
        d = np.asarray(desired, dtype=complex).ravel()
        if y.size != d.size:
            raise ConfigurationError("received/desired length mismatch")
        half = self.n_taps // 2
        padded = np.concatenate([
            np.zeros(half, dtype=complex), y, np.zeros(half, dtype=complex)
        ])
        for n in range(y.size):
            window = padded[n:n + self.n_taps][::-1]
            estimate = np.dot(self.taps, window)
            error = d[n] - estimate
            self.taps = self.taps + self.step * error * np.conj(window)

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------
    def equalize(self, signal) -> np.ndarray:
        """Filter *signal* with the trained taps ("same" length, centered)."""
        y = np.asarray(signal, dtype=complex).ravel()
        if y.size == 0:
            return y
        half = self.n_taps // 2
        full = np.convolve(y, self.taps)
        return full[half:half + y.size]

    def as_isi_filter(self) -> IsiFilter:
        return IsiFilter(self.taps)

    def inverse_channel(self, length: int | None = None) -> IsiFilter:
        """Invert the equalizer back into a channel (distortion) filter.

        This is the §4.2.4(d) operation: the returned filter re-applies the
        ISI that the equalizer removes, for use in chunk re-encoding.
        """
        n = length if length is not None else max(self.n_taps, 9)
        return IsiFilter(invert_fir(self.taps, n))
