"""The shared medium: superimposing packets into (possibly colliding) captures.

When Alice and Bob transmit concurrently their signals add at the AP
(Ch. 3): ``y[n] = yA[n] + yB[n] + w[n]``. This module synthesizes such
captures from per-sender symbol streams, channels and arrival offsets, and
is the workhorse behind every collision experiment in the repo.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.phy.channel import Channel, ChannelParams
from repro.phy.impairments import ImpairmentPipeline
from repro.phy.noise import awgn

__all__ = ["Transmission", "Capture", "channel_waveform", "synthesize"]


@dataclass(frozen=True)
class Transmission:
    """One packet on the air: its waveform, channel, and arrival offset.

    ``samples`` is the pulse-shaped baseband waveform; ``offset`` the index
    (in receiver samples) at which its first sample lands in the capture
    buffer. ``symbol0`` records where symbol 0's pulse centre sits (offset +
    shaper delay) — ground truth that oracle baselines may consult.
    """

    samples: np.ndarray
    params: ChannelParams
    offset: int
    label: str = ""
    symbol0: int = 0
    n_symbols: int = 0

    def __post_init__(self) -> None:
        if self.offset < 0:
            raise ConfigurationError("transmission offset must be >= 0")
        arr = np.asarray(self.samples, dtype=complex).ravel()
        if arr.size == 0:
            raise ConfigurationError("transmission carries no samples")
        object.__setattr__(self, "samples", arr)

    @classmethod
    def from_symbols(cls, symbols, shaper, params: ChannelParams,
                     offset: int, label: str = "") -> "Transmission":
        """Shape a symbol stream and place it at *offset* samples."""
        sym = np.asarray(symbols, dtype=complex).ravel()
        return cls.from_waveform(shaper.shape(sym), sym.size, shaper, params,
                                 offset, label)

    @classmethod
    def from_waveform(cls, waveform, n_symbols: int, shaper,
                      params: ChannelParams, offset: int,
                      label: str = "") -> "Transmission":
        """Place *waveform*, *shaper*'s shaping of *n_symbols* symbols,
        at *offset* samples."""
        return cls(
            samples=waveform,
            params=params,
            offset=offset,
            label=label,
            symbol0=offset + shaper.delay,
            n_symbols=n_symbols,
        )

    @property
    def end(self) -> int:
        return self.offset + self.samples.size


@dataclass
class Capture:
    """A received buffer plus ground truth about what it contains.

    The ground truth (`transmissions`, `clean_components`) is never used by
    the receivers — it exists for tests and for oracle baselines like the
    Collision-Free Scheduler.
    """

    samples: np.ndarray
    noise_power: float
    transmissions: list[Transmission]
    clean_components: list[np.ndarray] = field(default_factory=list)

    @property
    def n_senders(self) -> int:
        return len(self.transmissions)

    @property
    def is_collision(self) -> bool:
        return len(self.transmissions) > 1


def channel_waveform(transmission: Transmission,
                     rng: np.random.Generator) -> np.ndarray:
    """One transmission's waveform as the AP receives it (noise-free).

    Draws this transmission's channel realization (phase noise, tx EVM,
    per-sender impairments) from *rng*, anchored at the transmission's
    arrival offset so time-indexed impairments (SFO drift, fading) stay
    consistent with its position on the air. Shared by the one-shot
    :func:`synthesize` and the streaming :class:`repro.link.ContinuousAir`.
    """
    channel = Channel(transmission.params, rng)
    return channel.apply(transmission.samples,
                         start_sample=transmission.offset)


def synthesize(transmissions: list[Transmission], noise_power: float,
               rng: np.random.Generator, *, tail: int = 16,
               leading: int = 0,
               impairments: ImpairmentPipeline | None = None) -> Capture:
    """Build the AP's received buffer from overlapping transmissions.

    Parameters
    ----------
    transmissions:
        Packets with their channels and arrival offsets.
    noise_power:
        Complex AWGN power added once over the summed signal.
    tail, leading:
        Extra noise-only samples appended/prepended, as a real capture
        would include (and so correlation can run off the packet ends).
    impairments:
        Optional capture-level :class:`ImpairmentPipeline` — the AP's
        front end (clipping, quantization, IQ imbalance, DC offset) and
        external interferers. Applied once over the summed buffer, after
        AWGN, so it distorts every sender jointly; ``clean_components``
        stay pre-front-end ground truth.
    """
    if not transmissions:
        raise ConfigurationError("need at least one transmission")
    total = max(t.end for t in transmissions) + tail + leading
    buffer = np.zeros(total, dtype=complex)
    components = []
    for t in transmissions:
        waveform = channel_waveform(t, rng)
        start = leading + t.offset
        buffer[start:start + waveform.size] += waveform
        component = np.zeros(total, dtype=complex)
        component[start:start + waveform.size] = waveform
        components.append(component)
    buffer = buffer + awgn(total, noise_power, rng)
    if impairments is not None and not impairments.is_identity:
        buffer = impairments.apply(buffer, rng, 0)
    shifted = [
        Transmission(t.samples, t.params, t.offset + leading, t.label,
                     t.symbol0 + leading, t.n_symbols)
        for t in transmissions
    ]
    return Capture(buffer, noise_power, shifted, components)
