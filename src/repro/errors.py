"""Exception hierarchy for the ZigZag reproduction library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still being able to distinguish decode failures (expected, operational)
from configuration mistakes (programming errors).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigurationError(ReproError):
    """A parameter or combination of parameters is invalid.

    Raised eagerly at construction time so misconfiguration never shows up
    later as a silently-wrong result.
    """


class FrameError(ReproError):
    """A PHY frame could not be built or parsed."""


class SyncError(ReproError):
    """Packet-start synchronization failed (no preamble found)."""


class DecodeError(ReproError):
    """A packet failed to decode (checksum mismatch, lost lock, ...).

    This is an *operational* failure: it is the normal signal that a
    reception was not decodable, not a bug.
    """


class CollisionDetectError(ReproError):
    """Collision detection could not run (e.g. signal shorter than preamble)."""


class MatchError(ReproError):
    """No matching prior collision was found for a received collision."""


class ScheduleError(ReproError):
    """The greedy chunk scheduler could not find a complete decode order.

    Corresponds to the paper's "failure" events in Fig 4-7: the collision
    pattern does not satisfy the pairwise different-offset condition of
    Assertion 4.5.1 (or its N-sender analogue).
    """


class TrackingError(ReproError):
    """A tracking loop (phase / timing) diverged beyond recoverable bounds."""


class FaultInjectionError(ReproError):
    """An error raised on purpose by the chaos-injection harness.

    Never raised outside a run whose spec carries a ``[faults]`` table;
    its appearance in a failure report means the supervisor saw exactly
    the fault the harness injected.
    """


class TrialTimeoutError(ReproError):
    """A trial exceeded the supervisor's per-batch watchdog timeout."""


class WorkerCrashError(ReproError):
    """A worker process died mid-batch (OOM kill, segfault, ``os._exit``).

    The supervisor raises this only after pool respawns and the inline
    fallback have both been exhausted for the affected trials.
    """


class RunAbortedError(ReproError):
    """A run stopped early under the ``fail_fast`` failure policy.

    Carries the :class:`~repro.runner.resilience.TrialFailure` records
    collected before the abort in :attr:`failures`.
    """

    def __init__(self, message: str, failures: tuple = ()) -> None:
        super().__init__(message)
        self.failures = tuple(failures)


def error_class(exc: BaseException) -> str:
    """The taxonomy label for an exception: its most-derived class name.

    :class:`ReproError` subclasses *are* the taxonomy; anything else
    (``ValueError`` from numpy, ``MemoryError``, ...) reports its builtin
    class name so failure accounting still groups meaningfully.
    """
    return type(exc).__name__
