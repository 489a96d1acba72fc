"""Shared-memory waveform exchange between multi-cell workers.

The parallel multi-cell coordinator (:mod:`repro.link.parallel`) swaps
every cell's transmitted waveforms at each horizon barrier. Waveforms are
tens of kilobytes of complex samples each; pickling them through a pipe
would copy every byte twice. Instead the parent creates **one**
:class:`~multiprocessing.shared_memory.SharedMemory` block split into
per-writer regions, workers attach by name and bump-allocate their
waveforms into their own region, and readers resolve small
:class:`WaveformRef` handles into zero-copy views.

The parent owns the block: it creates it before the workers start and
unlinks it at the end of the run. Worker-side segments would be torn
down by the resource tracker at worker exit — parent ownership sidesteps
that whole class of lifetime bugs. A waveform that outgrows its region
falls back to pickling, flagged with ``region == -1``, so the arena is
purely an optimization and never a correctness constraint.

Three resilience guarantees ride on top (see ``docs/resilience.md``):

- **Recognizable names + leak detection.** Arenas are created under a
  ``repro-arena-*`` name so :func:`find_leaked_arenas` can audit
  ``/dev/shm`` after a crashed run, and tests can assert zero leaks.
- **Guaranteed unlink.** Every live parent-owned arena is registered in
  a module table; :meth:`WaveformArena.close` on all error paths plus an
  ``atexit`` guard (:func:`cleanup_arenas`) unlink leftovers even when
  the run aborts mid-step.
- **Checksums.** :meth:`WaveformArena.write` can stamp a CRC32 into the
  :class:`WaveformRef`; :meth:`WaveformRef.resolve` verifies it, so a
  corrupted region (the chaos harness's ``corrupt_shm_slot_prob``)
  surfaces as a :class:`~repro.errors.CaptureTransportError` instead of
  silently feeding garbage samples to a victim cell.
"""

from __future__ import annotations

import atexit
import os
import secrets
import zlib
from dataclasses import dataclass
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np

from repro.errors import CaptureTransportError, ConfigurationError

__all__ = ["WaveformRef", "WaveformArena", "cleanup_arenas",
           "find_leaked_arenas"]

_ITEMSIZE = np.dtype(complex).itemsize

# Arena segments carry this prefix so a leak audit can tell this package's
# segments apart from anything else living in /dev/shm.
ARENA_PREFIX = "repro-arena"

# Parent-owned arenas still open in this process, by name. close()
# removes entries; the atexit guard unlinks whatever remains.
_LIVE_ARENAS: dict[str, "WaveformArena"] = {}


def _checksum(view: np.ndarray) -> int:
    return zlib.crc32(np.ascontiguousarray(view).tobytes())


@dataclass(frozen=True)
class WaveformRef:
    """Where one variable-length waveform's samples live.

    ``region >= 0`` means ``arena.view(region, offset, size)``;
    ``region == -1`` means the samples travelled pickled in ``inline``
    (region-full overflow path).
    ``checksum`` is the CRC32 of the payload at write time, verified by
    :meth:`resolve` so corruption in transport surfaces as a
    :class:`~repro.errors.CaptureTransportError`.
    """

    region: int
    offset: int
    size: int
    inline: np.ndarray | None = None
    checksum: int | None = None

    def resolve(self, arena: "WaveformArena | None") -> np.ndarray:
        if self.region < 0:
            if self.inline is None:
                raise ConfigurationError("inline waveform ref has no data")
            return self.inline
        if arena is None:
            raise ConfigurationError(
                "arena-backed waveform ref but no arena attached")
        view = arena.view(self.region, self.offset, self.size)
        if self.checksum is not None and _checksum(view) != self.checksum:
            raise CaptureTransportError(
                f"waveform at region {self.region}+{self.offset} failed "
                f"checksum verification ({self.size} samples); waveform "
                "corrupted in transport")
        return view


class WaveformArena:
    """Variable-length complex waveforms in shared memory, by region.

    The multi-cell coordinator exchanges *waveforms* whose lengths vary
    with payload, modulation and channel dispersion. This arena gives
    each writer (one cell worker) its own **region** — a
    contiguous complex span bump-allocated front to back — so writers
    never contend and need no locking. :meth:`reset` rewinds one
    region's cursor at the start of each horizon window, after every
    reader consumed the previous window's refs at the barrier.

    A waveform that outgrows its region's remaining space falls back to
    an inline (pickled) ref, so the arena is purely an optimization and
    never a correctness constraint.
    """

    def __init__(self, shm: shared_memory.SharedMemory, n_regions: int,
                 region_samples: int, *, owner: bool) -> None:
        self._shm = shm
        self.n_regions = n_regions
        self.region_samples = region_samples
        self._owner = owner
        self.grid = np.ndarray((n_regions, region_samples), dtype=complex,
                               buffer=shm.buf)
        # Bump cursors are process-local: each region has exactly one
        # writing process, and readers address by explicit ref offsets.
        self._cursors = [0] * n_regions
        if owner:
            _LIVE_ARENAS[shm.name] = self

    # -- lifecycle ------------------------------------------------------
    @classmethod
    def create(cls, n_regions: int,
               region_samples: int) -> "WaveformArena":
        if n_regions < 1 or region_samples < 1:
            raise ConfigurationError("arena needs positive dimensions")
        name = f"{ARENA_PREFIX}-wave-{os.getpid()}-{secrets.token_hex(4)}"
        shm = shared_memory.SharedMemory(
            create=True, name=name,
            size=n_regions * region_samples * _ITEMSIZE)
        return cls(shm, n_regions, region_samples, owner=True)

    @classmethod
    def attach(cls, name: str, n_regions: int,
               region_samples: int) -> "WaveformArena":
        shm = shared_memory.SharedMemory(name=name)
        return cls(shm, n_regions, region_samples, owner=False)

    @property
    def name(self) -> str:
        return self._shm.name

    def close(self) -> None:
        """Release this process's mapping (owner additionally unlinks)."""
        self.grid = None
        _LIVE_ARENAS.pop(self._shm.name, None)
        self._shm.close()
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # already unlinked
                pass

    # -- access ---------------------------------------------------------
    def reset(self, region: int) -> None:
        """Rewind *region*'s bump cursor (start of a new window)."""
        if not 0 <= region < self.n_regions:
            raise ConfigurationError(f"region {region} out of range")
        self._cursors[region] = 0

    def write(self, region: int, samples: np.ndarray, *,
              checksum: bool = False) -> WaveformRef:
        """Append *samples* to *region*, or fall back to an inline ref."""
        arr = np.asarray(samples, dtype=complex).ravel()
        if not 0 <= region < self.n_regions:
            return WaveformRef(region=-1, offset=0, size=arr.size,
                               inline=arr)
        cursor = self._cursors[region]
        if cursor + arr.size > self.region_samples:
            return WaveformRef(region=-1, offset=0, size=arr.size,
                               inline=arr)
        self.grid[region, cursor:cursor + arr.size] = arr
        self._cursors[region] = cursor + arr.size
        crc = _checksum(arr) if checksum else None
        return WaveformRef(region=region, offset=cursor, size=arr.size,
                           checksum=crc)

    def view(self, region: int, offset: int, size: int) -> np.ndarray:
        """Zero-copy view of ``size`` samples at ``offset`` in *region*."""
        if not 0 <= region < self.n_regions:
            raise ConfigurationError(f"region {region} out of range")
        if offset < 0 or offset + size > self.region_samples:
            raise ConfigurationError(
                f"span {offset}+{size} exceeds region capacity "
                f"{self.region_samples}")
        return self.grid[region, offset:offset + size]


# ----------------------------------------------------------------------
# Leak detection and last-ditch cleanup
# ----------------------------------------------------------------------
def cleanup_arenas() -> list[str]:
    """Unlink every parent-owned arena still open in this process.

    Runs automatically at interpreter exit; callable directly from error
    paths and tests. Returns the names it cleaned up.
    """
    cleaned = []
    for name in list(_LIVE_ARENAS):
        arena = _LIVE_ARENAS.get(name)
        if arena is None:
            continue
        try:
            arena.close()
        except Exception:
            _LIVE_ARENAS.pop(name, None)
        cleaned.append(name)
    return cleaned


def find_leaked_arenas() -> list[str]:
    """Arena-named shared-memory segments present on this host.

    Scans ``/dev/shm`` (Linux; other platforms report nothing) for
    segments carrying :data:`ARENA_PREFIX`. After any run — crashed,
    chaos-injected, or clean — this must be empty; the resilience test
    suite and ``benchmarks/bench_chaos_soak.py`` assert exactly that.
    """
    root = Path("/dev/shm")
    if not root.is_dir():
        return []
    return sorted(p.name for p in root.glob(f"{ARENA_PREFIX}-*"))


atexit.register(cleanup_arenas)
