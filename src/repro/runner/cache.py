"""Per-process cache of expensive reference signals.

Every trial of a Monte-Carlo run needs the same handful of reference
objects: the PN preamble, the RRC pulse shaper (tap computation), and the
synchronizer/detector templates built from the *shaped preamble waveform*
— the re-encoded reference signal the receiver correlates against. Worker
processes live for a whole batch of trials, so rebuilding these per trial
is pure waste; scenario functions fetch them from this cache instead.

The cache is process-local (a worker inherits an empty one and fills it
on first use), keyed by constructor parameters, and never holds per-trial
state — everything in it is deterministic in its key, so caching cannot
perturb results.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable

from repro.phy.preamble import Preamble, default_preamble
from repro.phy.pulse import PulseShaper
from repro.phy.sync import Synchronizer
from repro.zigzag.detect import CollisionDetector

__all__ = [
    "SignalCache",
    "cached_detector",
    "cached_preamble",
    "cached_shaper",
    "cached_synchronizer",
    "shared_cache",
]


class SignalCache:
    """A keyed memo with hit/miss accounting."""

    def __init__(self) -> None:
        self._store: dict[Hashable, Any] = {}
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable, builder: Callable[[], Any]) -> Any:
        """Return the cached value for *key*, building it on first use."""
        try:
            value = self._store[key]
        except KeyError:
            self.misses += 1
            value = self._store[key] = builder()
            return value
        self.hits += 1
        return value

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        self._store.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._store)


_SHARED = SignalCache()


def shared_cache() -> SignalCache:
    """The process-wide cache used by the built-in scenarios."""
    return _SHARED


def cached_preamble(length: int = 32) -> Preamble:
    """The default PN preamble of *length* symbols (LFSR run memoized)."""
    return _SHARED.get(("preamble", length),
                       lambda: default_preamble(length))


def cached_shaper(sps: int = 2, span: int = 6, beta: float = 0.35) -> PulseShaper:
    """An RRC pulse shaper with memoized tap computation."""
    return _SHARED.get(("shaper", sps, span, beta),
                       lambda: PulseShaper(sps=sps, span=span, beta=beta))


def cached_synchronizer(preamble_length: int = 32, *,
                        threshold: float = 0.3) -> Synchronizer:
    """A synchronizer whose shaped-preamble template is built once."""
    return _SHARED.get(
        ("sync", preamble_length, threshold),
        lambda: Synchronizer(cached_preamble(preamble_length),
                             cached_shaper(), threshold=threshold))


def cached_detector(preamble_length: int = 32, *,
                    beta: float = 0.42) -> CollisionDetector:
    """A collision detector sharing the cached preamble/shaper."""
    return _SHARED.get(
        ("detector", preamble_length, beta),
        lambda: CollisionDetector(cached_preamble(preamble_length),
                                  cached_shaper(), beta=beta))
