"""Receiver-side link estimates (§4.2.4) and the blind noise floor.

:meth:`repro.phy.sync.Synchronizer.acquire` estimates a sender's complex
gain, frequency offset and fractional sampling offset from the known
preamble on the sample stream and returns them as a
:class:`ChannelEstimate`; decision-directed phase tracking refines
them during decoding.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["ChannelEstimate", "estimate_noise_power"]

# Standard deviation, in cycles per sample, of the AP's coarse
# per-client frequency-offset estimate: the client-table entry "obtained
# at the time of association" (§4.2.1) that acquisition starts from.
COARSE_FREQ_ERROR = 1.5e-5


@dataclass(frozen=True)
class ChannelEstimate:
    """Receiver-side estimate of one sender's link parameters."""

    gain: complex
    freq_offset: float
    sampling_offset: float
    snr_db: float
    isi_taps: tuple | None = None

    def with_gain(self, gain: complex) -> "ChannelEstimate":
        return replace(self, gain=gain)


def estimate_noise_power(signal, quiet_span: slice | None = None) -> float:
    """Estimate complex noise power from a quiet region of the capture.

    With no *quiet_span*, uses the lowest-energy decile of short windows —
    a standard blind floor estimate that is robust to packets occupying
    most of the buffer.
    """
    y = np.asarray(signal, dtype=complex).ravel()
    if quiet_span is not None:
        region = y[quiet_span]
        if region.size == 0:
            raise ConfigurationError("quiet span selects no samples")
        return float(np.mean(np.abs(region) ** 2))
    window = max(8, y.size // 64)
    n_windows = y.size // window
    if n_windows == 0:
        return float(np.mean(np.abs(y) ** 2))
    powers = np.mean(
        np.abs(y[:n_windows * window].reshape(n_windows, window)) ** 2, axis=1
    )
    k = max(1, n_windows // 10)
    return float(np.mean(np.sort(powers)[:k]))
