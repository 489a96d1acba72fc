"""Maximal Ratio Combining (§4.3b and Fig 4-1d).

MRC combines several noisy estimates of the same symbol stream, weighting
each by its reliability (channel power over noise). The paper's footnote
example: BPSK receptions -0.2 and +0.5 of the same bit combine to
(0.5 - 0.2) / 2 = 0.15 > 0, decoding "1" — exactly what
:func:`mrc_combine` computes with equal weights.

ZigZag uses MRC twice: combining forward- and backward-pass symbol
estimates (every bit appears in both collisions), and combining the two
faulty copies of Bob's packet in the capture-effect pattern of Fig 4-1d.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["mrc_combine"]


def mrc_combine(streams, weights=None) -> np.ndarray:
    """Weighted average of several gain-normalized soft symbol streams.

    Parameters
    ----------
    streams:
        Sequence of equal-length complex arrays, each an independent soft
        estimate of the same transmitted symbols (already normalized so a
        noiseless estimate equals the constellation point).
    weights:
        Per-stream reliabilities (e.g. |H|^2 / sigma^2). Equal by default.
        Entries may be per-stream scalars or per-symbol arrays.
    """
    arrays = [np.asarray(s, dtype=complex).ravel() for s in streams]
    if not arrays:
        raise ConfigurationError("mrc_combine needs at least one stream")
    length = arrays[0].size
    if any(a.size != length for a in arrays):
        raise ConfigurationError("all MRC streams must have equal length")
    if weights is None:
        weights = [1.0] * len(arrays)
    if len(weights) != len(arrays):
        raise ConfigurationError("one weight per stream required")
    weight_arrays = [np.broadcast_to(np.asarray(w, dtype=float), (length,))
                     for w in weights]
    numerator = np.zeros(length, dtype=complex)
    denominator = np.zeros(length, dtype=float)
    for arr, w in zip(arrays, weight_arrays):
        numerator += w * arr
        denominator += w
    if np.any(denominator <= 0):
        raise ConfigurationError("MRC weights must sum to a positive value")
    return numerator / denominator
