"""Per-process cache of deterministic objects reused across trials.

Worker processes live for a whole batch of trials, so rebuilding an
object every trial derives identically (a generated testbed, a city
deployment) is pure waste; scenario functions fetch such objects from
this cache instead.

The cache is process-local (a worker inherits an empty one and fills it
on first use), keyed by constructor parameters, and never holds per-trial
state — everything in it is deterministic in its key, so caching cannot
perturb results.

The air interface needs no cache: the preamble and the pulse shaper are
the module constants :data:`~repro.phy.preamble.PREAMBLE` and
:data:`~repro.phy.pulse.SHAPER`. :func:`cached_preamble` and
:func:`cached_shaper` only hand those back, for ``perfbench/``, which
calls them.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable

from repro.errors import ConfigurationError
from repro.phy.preamble import PREAMBLE, Preamble
from repro.phy.pulse import SHAPER, PulseShaper

__all__ = [
    "SignalCache",
    "cached_preamble",
    "cached_shaper",
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


def cached_preamble(length: int = len(PREAMBLE)) -> Preamble:
    """:data:`~repro.phy.preamble.PREAMBLE`; any other *length* raises
    :class:`ConfigurationError`."""
    if length != len(PREAMBLE):
        raise ConfigurationError(
            f"the preamble is fixed at {len(PREAMBLE)} symbols, "
            f"not {length}")
    return PREAMBLE


def cached_shaper() -> PulseShaper:
    """:data:`~repro.phy.pulse.SHAPER`."""
    return SHAPER
