"""Deterministic chaos injection inside Monte-Carlo workers.

The supervision layer (:mod:`repro.runner.resilience`) claims that a run
survives worker kills, hangs and trial exceptions with surviving results
bit-identical to a fault-free run, and the multi-cell coordinator
(:mod:`repro.link.parallel`) claims the same for its cell workers. This
module is how that claim gets *proved* rather than asserted: a
``[faults]`` table in the scenario TOML arms a :class:`ChaosInjector`
inside every worker, which injects exactly those failures at seeded,
reproducible points.

Two properties make the injection compatible with the determinism
contract:

- **Fault draws never touch trial randomness.** Each decision comes from
  ``SeedSequence(faults.seed, spawn_key=(_FAULT_SALT, index, attempt))``
  — a stream disjoint from every trial's ``SeedSequence(seed, (i,))``
  data stream, so arming faults cannot perturb what a surviving trial
  computes.
- **Draws are per (trial, attempt).** A fault that killed attempt 0 of
  trial *i* is redrawn on attempt 1, so supervised retries converge
  instead of replaying the same kill forever; and because the *data*
  stream depends only on the trial index, the retried trial is
  bit-identical to the one the fault interrupted.

Kill and hang faults are armed only inside worker processes — injecting
them in the parent would take down the supervisor itself, which is the
checkpoint/resume story (``--checkpoint`` / ``--resume``), not the
supervision one.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, FaultInjectionError

__all__ = ["ChaosInjector", "FaultSpec", "KILL_EXIT_CODE"]

# Workers felled by an injected kill exit with this code, so a chaos
# crash is distinguishable from a real one in pool post-mortems.
KILL_EXIT_CODE = 86

# Disambiguates fault draws from trial-data SeedSequence spawn keys.
_FAULT_SALT = 0xFA017


@dataclass(frozen=True)
class FaultSpec:
    """The ``[faults]`` TOML table: per-trial fault injection probabilities.

    All probabilities are evaluated independently per (trial, attempt)
    from the deterministic stream described in the module docstring.
    ``hang_seconds`` bounds an injected hang so an unwatched run still
    terminates; the watchdog (``[resilience].batch_timeout``) is expected
    to fire long before it elapses.
    """

    kill_worker_prob: float = 0.0
    hang_trial_prob: float = 0.0
    raise_in_trial_prob: float = 0.0
    hang_seconds: float = 30.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("kill_worker_prob", "hang_trial_prob",
                     "raise_in_trial_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"[faults].{name} must be in [0, 1], got {value}")
        if self.hang_seconds < 0:
            raise ConfigurationError("[faults].hang_seconds must be >= 0")

    @property
    def is_empty(self) -> bool:
        """True when no fault kind can ever fire."""
        return (self.kill_worker_prob == 0.0
                and self.hang_trial_prob == 0.0
                and self.raise_in_trial_prob == 0.0)


class ChaosInjector:
    """Injects seeded faults around trial execution inside a worker.

    ``in_worker`` is detected automatically (a process with a parent is a
    pool worker); pass it explicitly only in tests. In the parent process
    kill and hang faults are disarmed — the degraded inline path must
    always make progress — while exception faults stay armed everywhere
    (the per-trial catch handles them identically in both places).
    """

    def __init__(self, faults: FaultSpec,
                 in_worker: bool | None = None) -> None:
        self.faults = faults
        if in_worker is None:
            in_worker = multiprocessing.parent_process() is not None
        self.in_worker = in_worker

    def _draws(self, index: int, attempt: int) -> np.ndarray:
        sequence = np.random.SeedSequence(
            entropy=int(self.faults.seed),
            spawn_key=(_FAULT_SALT, int(index), int(attempt)))
        # Fixed draw order (kill, hang, raise) so adding a fault kind
        # later cannot silently reshuffle existing soak baselines.
        return np.random.default_rng(sequence).uniform(size=3)

    def pre_trial(self, index: int, attempt: int) -> None:
        """Maybe kill, hang, or raise before trial *index* runs."""
        if self.faults.is_empty:
            return
        kill, hang, raise_ = self._draws(index, attempt)
        if self.in_worker and kill < self.faults.kill_worker_prob:
            os._exit(KILL_EXIT_CODE)
        if self.in_worker and hang < self.faults.hang_trial_prob:
            time.sleep(self.faults.hang_seconds)
        if raise_ < self.faults.raise_in_trial_prob:
            raise FaultInjectionError(
                f"injected fault in trial {index} (attempt {attempt})")
