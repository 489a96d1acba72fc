"""Leak audit for shared-memory segments named after this package.

No run path creates shared memory: multi-cell workers send their
waveforms over their pipes (:mod:`repro.link.parallel`) and pooled
Monte-Carlo trials return results, not samples. :func:`find_leaked_arenas`
stays as the audit that proves it — the resilience tests, the chaos and
city soaks and the closed-loop benchmark assert it returns ``[]`` after
every run, crashed, chaos-injected or clean.
"""

from __future__ import annotations

from pathlib import Path

__all__ = ["find_leaked_arenas"]

# Segments under this prefix belong to this package; anything else in
# /dev/shm is none of the audit's business.
ARENA_PREFIX = "repro-arena"


def find_leaked_arenas() -> list[str]:
    """Arena-named shared-memory segments present on this host.

    Scans ``/dev/shm`` (Linux; other platforms report nothing) for
    segments carrying :data:`ARENA_PREFIX`.
    """
    root = Path("/dev/shm")
    if not root.is_dir():
        return []
    return sorted(p.name for p in root.glob(f"{ARENA_PREFIX}-*"))
