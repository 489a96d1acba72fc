"""Bounded-memory continuous air: the medium as a sample *stream*.

The one-shot :func:`repro.phy.medium.synthesize` materializes a whole
capture at once, which caps an experiment at "one collision per call". A
real AP front end instead sees an endless sample stream in which packets
start whenever their senders' MACs fire. :class:`ContinuousAir` models
exactly that: transmissions are scheduled at absolute sample offsets, and
the receiver side pulls fixed-size chunks — noise plus whatever scheduled
waveforms overlap the chunk. Only waveforms that still overlap un-emitted
samples stay resident, so memory is bounded by the longest in-flight
transmission plus one chunk, never by session length.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.phy.impairments import ImpairmentPipeline
from repro.phy.medium import Transmission, channel_waveform
from repro.phy.noise import NOISE_POWER, awgn

__all__ = ["ContinuousAir"]


class ContinuousAir:
    """Schedules transmissions and emits the received stream in chunks.

    ``schedule`` accepts a :class:`~repro.phy.medium.Transmission` whose
    ``offset`` is an *absolute* sample index on the session clock; the
    sender's channel realization (gain phase, phase noise, tx EVM,
    per-sender impairments) is drawn immediately, anchored at that offset.
    ``emit`` then produces the next chunk of received samples: complex
    AWGN plus every overlapping waveform. Scheduling into already-emitted
    time is an error — the stream is causal.

    *impairments* is the optional AP front-end pipeline (clipping,
    quantization, IQ imbalance, interferers), applied per chunk with the
    chunk's absolute start index so index-parameterized stages stay
    continuous across chunk boundaries.
    """

    def __init__(self, rng: np.random.Generator,
                 impairments: ImpairmentPipeline | None = None) -> None:
        self.rng = rng
        self.impairments = impairments
        self._active: list[tuple[int, np.ndarray]] = []  # (start, waveform)
        self._cursor = 0            # absolute index of the next new sample
        self.samples_emitted = 0
        self.samples_skipped = 0
        self.samples_injected = 0
        self.samples_clipped = 0
        self.max_resident_samples = 0
        # Optional observer called as ``on_schedule(transmission,
        # waveform)`` for every scheduled transmission — how a
        # multi-cell coordinator learns the realized waveforms it must
        # exchange as inter-cell interference.
        self.on_schedule = None

    # ------------------------------------------------------------------
    @property
    def cursor(self) -> int:
        """Absolute index of the first not-yet-emitted sample."""
        return self._cursor

    @property
    def horizon(self) -> int:
        """Absolute end of the last scheduled waveform (>= cursor)."""
        if not self._active:
            return self._cursor
        return max(start + wave.size for start, wave in self._active)

    @property
    def resident_samples(self) -> int:
        """Waveform samples currently held (the memory bound)."""
        return sum(wave.size for _, wave in self._active)

    # ------------------------------------------------------------------
    def schedule(self, transmission: Transmission) -> int:
        """Place a transmission on the air; returns its waveform length.

        The transmission's channel is realized now, so callers get the
        airtime the packet will actually occupy (pulse-shaping tails and
        channel dispersion included).
        """
        if transmission.offset < self._cursor:
            raise ConfigurationError(
                f"transmission at {transmission.offset} predates emitted "
                f"air (cursor {self._cursor})")
        waveform = channel_waveform(transmission, self.rng)
        self._active.append((transmission.offset, waveform))
        self.max_resident_samples = max(self.max_resident_samples,
                                        self.resident_samples)
        if self.on_schedule is not None:
            self.on_schedule(transmission, waveform)
        return waveform.size

    def inject(self, start: int, waveform: np.ndarray) -> tuple[int, int]:
        """Add an externally-realized waveform (inter-cell interference).

        Unlike :meth:`schedule`, no channel is drawn — the samples land
        as given — and *start* may predate the cursor: interference
        exchanged at a horizon boundary can reach into air this cell
        already emitted, so the already-emitted prefix is clipped away
        (the stream stays causal) and only ``[max(start, cursor),
        start + len)`` is placed on the air. Returns the effective
        ``(start, end)`` span; ``end <= start`` means the waveform fell
        entirely into the past and nothing was placed.
        """
        wave = np.ascontiguousarray(waveform)
        end = start + wave.size
        lo = max(int(start), self._cursor)
        self.samples_clipped += min(max(lo - start, 0), wave.size)
        if lo >= end:
            return (lo, lo)
        self._active.append((lo, wave[lo - start:]))
        self.samples_injected += end - lo
        self.max_resident_samples = max(self.max_resident_samples,
                                        self.resident_samples)
        return (lo, end)

    def skip(self, n_samples: int) -> None:
        """Advance the cursor past *n_samples* of idle air in O(1).

        The span must be silent — no scheduled waveform may overlap it.
        No noise is synthesized and no RNG state is consumed, which is
        what lets the event-driven session core make wall time scale
        with *burst* samples instead of *simulated* samples. The skipped
        span is gone for good: it can never be emitted afterwards.
        """
        if n_samples < 0:
            raise ConfigurationError("skip needs a non-negative count")
        t1 = self._cursor + n_samples
        for start, wave in self._active:
            if start < t1 and self._cursor < start + wave.size:
                raise ConfigurationError(
                    f"cannot skip [{self._cursor}, {t1}): a scheduled "
                    f"waveform at {start} overlaps it")
        self._cursor = t1
        self.samples_skipped += n_samples

    def emit(self, n_samples: int) -> np.ndarray:
        """The next *n_samples* of received signal."""
        if n_samples < 1:
            raise ConfigurationError("emit needs a positive sample count")
        t0, t1 = self._cursor, self._cursor + n_samples
        chunk = awgn(n_samples, NOISE_POWER, self.rng)
        finished = []
        for slot, (start, wave) in enumerate(self._active):
            end = start + wave.size
            if start < t1 and t0 < end:
                lo = max(start, t0)
                hi = min(end, t1)
                chunk[lo - t0:hi - t0] += wave[lo - start:hi - start]
            if end <= t1:
                finished.append(slot)
        for slot in reversed(finished):
            del self._active[slot]
        front = self.impairments
        if front is not None and not front.is_identity:
            chunk = front.apply(chunk, self.rng, t0)
        self._cursor = t1
        self.samples_emitted += n_samples
        return chunk
