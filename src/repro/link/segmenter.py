"""Streaming burst segmentation: carving captures out of continuous air.

The AP's receive chain (collision detection, standard decode, ZigZag)
operates on *captures* — sample buffers that each hold one reception or
collision. On a continuous stream someone has to find those buffers:
:class:`BurstSegmenter` watches chunk after chunk of received samples,
opens a burst when short-window power rises above the noise floor, and
closes it when a longer hang window of near-noise samples confirms the
air went quiet (two thresholds, so envelope dips inside a packet don't
split it). Bursts that straddle chunk boundaries are carried over; the
only state kept between chunks is the open burst (capped at
:data:`MAX_BURST_SAMPLES`) plus a small tail of history for the moving
averages and leading pad — the full stream is never materialized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.phy.noise import NOISE_POWER

__all__ = ["Burst", "BurstSegmenter"]

# Energy hysteresis, relative to the known noise floor (NOISE_POWER): an
# OPEN_WINDOW mean of OPEN_FACTOR × noise opens a burst, a HANG_WINDOW
# mean below CLOSE_FACTOR × noise closes it (0 < CLOSE_FACTOR <
# OPEN_FACTOR).
OPEN_FACTOR = 3.0
CLOSE_FACTOR = 1.8
OPEN_WINDOW = 16
HANG_WINDOW = 64
# Leading context samples kept ahead of each burst.
PAD = 16
# Longest burst: a burst still open at this length is force-closed. It
# must hold several hang windows (at least 4 × HANG_WINDOW).
MAX_BURST_SAMPLES = 1 << 17


@dataclass(frozen=True)
class Burst:
    """One segmented capture: samples plus its place on the stream."""

    samples: np.ndarray
    start: int              # absolute index of samples[0]
    truncated: bool = False  # force-closed at MAX_BURST_SAMPLES

    @property
    def end(self) -> int:
        return self.start + self.samples.size


class BurstSegmenter:
    """Push chunks in, get completed bursts out.

    ``push`` returns every burst *completed* by that chunk (possibly
    none, possibly several); ``flush`` closes a still-open burst at end
    of stream. Samples are float-compared against two causal moving
    averages of instantaneous power — an :data:`OPEN_WINDOW` mean crossing
    ``OPEN_FACTOR × noise`` opens, a :data:`HANG_WINDOW` mean dropping below
    ``CLOSE_FACTOR × noise`` closes, so the close point trails the true
    packet end by roughly one hang window of silence (which the decode
    chain wants as tail context anyway).
    """

    def __init__(self) -> None:
        k = max(OPEN_WINDOW, HANG_WINDOW) + PAD
        self._history = np.zeros(0, dtype=complex)  # last k stream samples
        self._history_len = k
        self._pos = 0               # absolute index of the next pushed sample
        self._open: list[np.ndarray] | None = None
        self._open_len = 0
        self._open_start = 0
        self._prev_end = 0          # absolute end of the last closed burst
        self.bursts_emitted = 0
        self.forced_closes = 0
        self.max_resident_samples = 0

    # ------------------------------------------------------------------
    @property
    def is_open(self) -> bool:
        return self._open is not None

    @property
    def resident_samples(self) -> int:
        return self._history.size + self._open_len

    # ------------------------------------------------------------------
    def _causal_mean(self, power: np.ndarray, window: int,
                     n_out: int) -> np.ndarray:
        """Causal *window*-sample mean for the last *n_out* positions."""
        cs = np.concatenate(([0.0], np.cumsum(power)))
        idx = np.arange(power.size - n_out, power.size)
        lo = np.maximum(idx + 1 - window, 0)
        return (cs[idx + 1] - cs[lo]) / np.maximum(idx + 1 - lo, 1)

    def push(self, chunk) -> list[Burst]:
        """Consume one chunk; return bursts completed inside it."""
        chunk = np.asarray(chunk, dtype=complex).ravel()
        if chunk.size == 0:
            return []
        joined = np.concatenate([self._history, chunk])
        carry = joined.size - chunk.size      # history samples prepended
        power = np.abs(joined) ** 2
        open_cond = (self._causal_mean(power, OPEN_WINDOW, chunk.size)
                     >= OPEN_FACTOR * NOISE_POWER)
        close_cond = (self._causal_mean(power, HANG_WINDOW, chunk.size)
                      < CLOSE_FACTOR * NOISE_POWER)

        out: list[Burst] = []
        i = 0
        while i < chunk.size:
            if self._open is None:
                hits = np.flatnonzero(open_cond[i:])
                if hits.size == 0:
                    break
                j = i + int(hits[0])
                # Reach back for leading context: the detector fired one
                # open-window after the packet edge, so pull window + pad
                # samples of history (never into the previous burst).
                back = OPEN_WINDOW + PAD
                # Never reach past retained history (after a skip() the
                # stream before ``_pos - carry`` was never materialized).
                start_abs = max(self._pos + j - back, self._prev_end,
                                self._pos - carry)
                lead_lo = carry + j - (self._pos + j - start_abs)
                self._open = [joined[lead_lo:carry + j + 1].copy()]
                self._open_len = self._open[0].size
                self._open_start = start_abs
                i = j + 1
            else:
                # Don't allow the leading silence still inside the hang
                # window to close a burst that just opened.
                guard = self._open_start + HANG_WINDOW - self._pos
                lo = max(i, guard, 0)
                hits = np.flatnonzero(close_cond[lo:]) \
                    if lo < chunk.size else np.zeros(0, int)
                # The open burst never exceeds MAX_BURST_SAMPLES: appends
                # are capped at the remaining room and the leftover chunk
                # samples are re-fed as a fresh burst-open scan.
                room = MAX_BURST_SAMPLES - self._open_len
                if hits.size == 0:
                    take = min(chunk.size - i, room)
                    self._open.append(chunk[i:i + take].copy())
                    self._open_len += take
                    i += take
                    if self._open_len >= MAX_BURST_SAMPLES:
                        out.append(self._close(truncated=True))
                elif lo + int(hits[0]) + 1 - i > room:
                    # Cap reached before the close point.
                    self._open.append(chunk[i:i + room].copy())
                    self._open_len += room
                    i += room
                    out.append(self._close(truncated=True))
                else:
                    j = lo + int(hits[0])
                    self._open.append(chunk[i:j + 1].copy())
                    self._open_len += j + 1 - i
                    out.append(self._close(truncated=False))
                    i = j + 1
        self._pos += chunk.size
        self._history = joined[-self._history_len:].copy()
        self.max_resident_samples = max(self.max_resident_samples,
                                        self.resident_samples)
        return out

    def skip(self, n_samples: int) -> None:
        """Advance past *n_samples* of known-idle air without scanning.

        The event-driven session core uses this to jump over stretches
        of the stream that hold nothing but noise: the position advances
        in O(1) and the moving-average history resets to empty (the next
        pushed chunk warms it up from its own samples). Skipping is only
        legal while no burst is open.
        """
        if n_samples < 0:
            raise ConfigurationError("skip needs a non-negative count")
        if self._open is not None:
            raise ConfigurationError(
                "cannot skip stream samples while a burst is open")
        self._pos += n_samples
        self._history = np.zeros(0, dtype=complex)

    def flush(self) -> list[Burst]:
        """Close any still-open burst at end of stream."""
        if self._open is None:
            return []
        return [self._close(truncated=False)]

    # ------------------------------------------------------------------
    def _close(self, truncated: bool) -> Burst:
        burst = Burst(samples=np.concatenate(self._open),
                      start=self._open_start, truncated=truncated)
        self._prev_end = burst.end
        self._open = None
        self._open_len = 0
        self.bursts_emitted += 1
        if truncated:
            self.forced_closes += 1
        return burst
