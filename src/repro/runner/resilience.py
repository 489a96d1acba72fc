"""Fault-tolerant execution for the Monte-Carlo runner.

ZigZag itself is a graceful-degradation design — a collision the decoder
cannot resolve falls back to 802.11-equivalent behavior (§4.4) — and the
runner meets the same bar: one trial exception, one hung batch, or one
OOM-killed worker must cost *that trial's attempt*, never the whole
sweep. This module supplies the three pieces the runner threads through
its execution paths:

- :class:`FailurePolicy` (the ``[resilience]`` TOML table) — what to do
  when a trial fails: ``fail_fast`` (abort, the pre-supervision
  behavior), ``skip`` (record a :class:`TrialFailure` and keep going),
  or ``retry`` (capped exponential backoff). A retried trial re-derives
  the *same* ``SeedSequence(seed, spawn_key=(i,))`` child as the attempt
  it replaces, so retries are bit-identical to a fault-free run.
- :class:`PoolSupervisor` — supervised batch execution over a process
  pool: per-batch watchdog timeouts, ``BrokenProcessPool`` detection
  with pool respawn and resubmission of only the unfinished batches, and
  a degradation ladder (split the failing batch, ultimately run the
  offending trials inline in the parent where a worker crash cannot
  recur).
- :class:`CheckpointJournal` — an append-only JSONL journal of completed
  trials, written as batches land, so a run interrupted by SIGKILL of
  the parent resumes at grid-point + trial granularity
  (``--checkpoint`` / ``--resume`` on the CLI).

The chaos-injection harness (:mod:`repro.runner.chaos`) exists to prove
all of this: ``tests/test_runner_resilience.py`` and
``benchmarks/bench_chaos_soak.py`` inject worker kills, hangs and trial
exceptions, then assert the surviving results are bit-identical to a
fault-free run. See
``docs/resilience.md``.

The parallel multi-cell coordinator (:mod:`repro.link.parallel`) is the
second supervised surface and follows :class:`PoolSupervisor`'s
watchdog idiom one level down: every horizon-barrier wait carries a
timeout (``MultiCellConfig.step_timeout_s``), and a hung, killed, or
raising cell worker tears the pool down and degrades the block to
sequential stepping in the parent — bit-identical results, wall-clock
cost only. Its inline-degradation ladder mirrors this module's "run the
offending trials inline" last rung, and ``tests/test_multicell_parallel.py``
proves it with the same chaos harness.
"""

from __future__ import annotations

import hashlib
import json
import math
import pickle
import time
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, Executor, Future, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from repro.errors import (
    ConfigurationError,
    FaultInjectionError,
    ReproError,
    RunAbortedError,
    TrialTimeoutError,
    WorkerCrashError,
    error_class,
)
from repro.testbed.metrics import FlowStats

__all__ = [
    "BatchTask",
    "CheckpointJournal",
    "FailurePolicy",
    "PoolSupervisor",
    "SupervisorStats",
    "TrialFailure",
    "raise_failure",
    "spec_digest",
]

_POLICY_MODES = ("fail_fast", "skip", "retry")


@dataclass(frozen=True)
class FailurePolicy:
    """The ``[resilience]`` TOML table: what a trial failure costs.

    ``mode`` picks the response to a failed trial; ``max_retries`` bounds
    both retry attempts and the pool-crash/watchdog ladders;
    ``backoff_base``/``backoff_cap`` shape the capped exponential delay
    between retry attempts (seconds). ``batch_timeout`` > 0 arms a
    per-batch watchdog (seconds).
    """

    mode: str = "fail_fast"
    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    batch_timeout: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in _POLICY_MODES:
            raise ConfigurationError(
                f"[resilience].mode must be one of {_POLICY_MODES}, "
                f"got {self.mode!r}")
        if self.max_retries < 0:
            raise ConfigurationError("[resilience].max_retries must be >= 0")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ConfigurationError(
                "[resilience] backoff values must be >= 0")
        if self.batch_timeout < 0:
            raise ConfigurationError(
                "[resilience].batch_timeout must be >= 0 (0 disables)")

    def retry_delay(self, attempt: int) -> float:
        """Backoff before re-running a trial that failed *attempt* times."""
        if self.backoff_base == 0.0:
            return 0.0
        return min(self.backoff_cap, self.backoff_base * (2.0 ** attempt))


@dataclass(frozen=True)
class TrialFailure:
    """One trial's terminal failure, classified via the errors taxonomy.

    ``error_class`` is the exception's most-derived class name
    (:func:`repro.errors.error_class`); ``stage`` locates the failure in
    the execution pipeline (``trial``, ``synthesis``, ``timeout``,
    ``worker``). ``exception`` carries the live exception
    when it survived the process boundary (``fail_fast`` re-raises it);
    it is excluded from equality and never serialized.
    """

    index: int
    error_class: str
    message: str
    attempts: int = 1
    stage: str = "trial"
    exception: BaseException | None = field(
        default=None, compare=False, repr=False)

    @classmethod
    def from_exception(cls, index: int, exc: BaseException, *,
                       attempts: int = 1, stage: str = "trial"
                       ) -> "TrialFailure":
        carried: BaseException | None = exc
        try:
            pickle.dumps(exc)
        except Exception:
            # An unpicklable exception would poison the whole result
            # batch on its way back through the pool's result queue.
            carried = None
        return cls(index=index, error_class=error_class(exc),
                   message=str(exc), attempts=attempts, stage=stage,
                   exception=carried)


def raise_failure(failure: TrialFailure,
                  collected: tuple = ()) -> None:
    """The ``fail_fast`` abort: re-raise a failure as an exception.

    A failure whose live exception is a :class:`ReproError` re-raises it
    unchanged (callers keep matching on the taxonomy); anything else —
    including an injected :class:`FaultInjectionError`, which is a chaos
    artifact rather than a scenario error — is wrapped in
    :class:`RunAbortedError` carrying every failure collected before the
    abort, so the CLI can print a failure summary instead of a bare
    traceback.
    """
    if isinstance(failure.exception, ReproError) \
            and not isinstance(failure.exception, FaultInjectionError):
        raise failure.exception
    message = (f"trial {failure.index} failed at stage "
               f"{failure.stage!r} ({failure.error_class}: "
               f"{failure.message}); fail_fast policy aborts the run")
    raise RunAbortedError(message, failures=(failure, *collected)) \
        from failure.exception


@dataclass
class SupervisorStats:
    """What the supervisor had to do to finish the run."""

    pool_respawns: int = 0
    watchdog_timeouts: int = 0
    batches_split: int = 0
    trial_retries: int = 0
    inline_batches: int = 0
    inline_fallbacks: int = 0

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in (
            "pool_respawns", "watchdog_timeouts", "batches_split",
            "trial_retries", "inline_batches", "inline_fallbacks")}


@dataclass(frozen=True)
class BatchTask:
    """How the supervisor runs one batch of trial indices.

    ``submit(pool, indices, attempt)`` schedules the batch on a pool and
    returns a future resolving to per-index outcomes (results or
    :class:`TrialFailure`, in index order); ``run_inline`` executes the
    same batch in the parent process — the bottom rung of the degradation
    ladder, where worker kills and hangs cannot recur.
    """

    submit: Callable[[Executor, list[int], int], Future]
    run_inline: Callable[[list[int], int], list]


@dataclass
class _Job:
    """One schedulable batch: which trials, which attempt, which rung."""

    indices: list[int]
    attempt: int = 0
    crashes: int = 0
    inline: bool = False
    ready_at: float = 0.0


class PoolSupervisor:
    """Supervised batch execution with watchdog, respawn, and retry.

    ``pool_factory`` creates a fresh ``ProcessPoolExecutor`` on demand
    (``None`` runs every batch inline — the single-worker path rides the
    same policy machinery). ``window`` bounds concurrently submitted
    batches to the worker count so the per-batch watchdog measures run
    time, not queue time. ``on_success`` is invoked as each trial result
    is finalized (the checkpoint journal hook).
    """

    def __init__(self, pool_factory: Callable[[], Executor] | None,
                 policy: FailurePolicy, *, window: int = 1,
                 on_success: Callable[[int, Any], None] | None = None
                 ) -> None:
        self._pool_factory = pool_factory
        self.policy = policy
        self.window = max(1, window)
        self.on_success = on_success
        self.stats = SupervisorStats()
        self._pool: Executor | None = None

    # -- public --------------------------------------------------------
    def execute(self, task: BatchTask, batches: Sequence[Sequence[int]]
                ) -> tuple[dict[int, Any], list[TrialFailure]]:
        """Run every batch to completion under the failure policy.

        Returns ``(results, failures)``: results keyed by trial index,
        plus the terminal :class:`TrialFailure` records (empty unless the
        policy is ``skip``, or ``retry`` exhausted its attempts).
        ``fail_fast`` re-raises the first failure's exception instead.
        """
        pending: list[_Job] = [
            _Job(list(batch), inline=self._pool_factory is None)
            for batch in batches if len(batch) > 0]
        results: dict[int, Any] = {}
        failures: dict[int, TrialFailure] = {}
        active: dict[Future, tuple[_Job, float]] = {}
        try:
            while pending or active:
                if self._step_inline(task, pending, results, failures):
                    continue
                self._fill_window(task, pending, active)
                if not active:
                    self._sleep_until_ready(pending)
                    continue
                broken = self._collect(active, pending, results, failures)
                if broken:
                    self._recover_from_crash(active, pending)
                    continue
                self._check_watchdog(active, pending, failures)
        finally:
            self._shutdown(terminate=bool(active))
        return results, [failures[i] for i in sorted(failures)]

    # -- scheduling ----------------------------------------------------
    def _step_inline(self, task: BatchTask, pending: list[_Job],
                     results: dict, failures: dict) -> bool:
        now = time.monotonic()
        ready = [job for job in pending if job.inline and job.ready_at <= now]
        for job in ready:
            pending.remove(job)
            self.stats.inline_batches += 1
            outcomes = task.run_inline(job.indices, job.attempt)
            self._absorb(job, outcomes, pending, results, failures)
        return bool(ready)

    def _fill_window(self, task: BatchTask, pending: list[_Job],
                     active: dict) -> None:
        now = time.monotonic()
        while len(active) < self.window:
            job = next((j for j in pending
                        if not j.inline and j.ready_at <= now), None)
            if job is None:
                return
            pending.remove(job)
            future = task.submit(self._ensure_pool(), job.indices,
                                 job.attempt)
            deadline = (now + self.policy.batch_timeout
                        if self.policy.batch_timeout > 0 else math.inf)
            active[future] = (job, deadline)

    def _sleep_until_ready(self, pending: list[_Job]) -> None:
        if not pending:
            return
        wake = min(job.ready_at for job in pending)
        delay = wake - time.monotonic()
        if delay > 0:
            time.sleep(min(delay, 0.5))

    def _collect(self, active: dict, pending: list[_Job],
                 results: dict, failures: dict) -> bool:
        """Absorb finished futures; True means the pool broke."""
        finite = [deadline for _, deadline in active.values()
                  if deadline != math.inf]
        timeout = None
        if finite:
            timeout = max(0.02, min(0.5,
                                    min(finite) - time.monotonic() + 0.01))
        done, _ = wait(list(active), timeout=timeout,
                       return_when=FIRST_COMPLETED)
        broken = False
        for future in done:
            job, _ = active.pop(future)
            try:
                outcomes = future.result()
            except BrokenExecutor:
                broken = True
                self._requeue_after_crash(job, pending)
            except Exception as exc:  # the batch function itself blew up
                outcomes = [
                    TrialFailure.from_exception(
                        index, exc, attempts=job.attempt + 1, stage="worker")
                    for index in job.indices]
                self._absorb(job, outcomes, pending, results, failures)
            else:
                self._absorb(job, outcomes, pending, results, failures)
        return broken

    # -- failure handling ----------------------------------------------
    def _absorb(self, job: _Job, outcomes: list, pending: list[_Job],
                results: dict, failures: dict) -> None:
        if len(outcomes) != len(job.indices):
            raise WorkerCrashError(
                f"batch returned {len(outcomes)} outcomes for "
                f"{len(job.indices)} trials")
        retry: list[int] = []
        for index, outcome in zip(job.indices, outcomes):
            if not isinstance(outcome, TrialFailure):
                results[index] = outcome
                if self.on_success is not None:
                    self.on_success(index, outcome)
                continue
            if self.policy.mode == "retry" \
                    and job.attempt < self.policy.max_retries:
                retry.append(index)
            elif self.policy.mode == "fail_fast":
                self._abort(outcome, failures)
            else:
                failures[index] = outcome
        if retry:
            self.stats.trial_retries += len(retry)
            pending.append(_Job(
                retry, attempt=job.attempt + 1, crashes=job.crashes,
                inline=job.inline,
                ready_at=time.monotonic()
                + self.policy.retry_delay(job.attempt)))

    def _abort(self, failure: TrialFailure, failures: dict) -> None:
        self._shutdown(terminate=True)
        raise_failure(failure, tuple(failures[i] for i in sorted(failures)))

    def _requeue_after_crash(self, job: _Job, pending: list[_Job]) -> None:
        # Bump the attempt so a deterministically-seeded kill fault does
        # not replay; trial data streams are attempt-independent.
        requeued = _Job(job.indices, attempt=job.attempt + 1,
                        crashes=job.crashes + 1, inline=job.inline)
        if not requeued.inline \
                and requeued.crashes > max(1, self.policy.max_retries):
            requeued.inline = True
            self.stats.inline_fallbacks += 1
        pending.append(requeued)

    def _recover_from_crash(self, active: dict, pending: list[_Job]
                            ) -> None:
        self.stats.pool_respawns += 1
        for job, _ in active.values():
            self._requeue_after_crash(job, pending)
        active.clear()
        self._shutdown(terminate=True)

    def _check_watchdog(self, active: dict, pending: list[_Job],
                        failures: dict) -> None:
        now = time.monotonic()
        expired = [future for future, (_, deadline) in active.items()
                   if now > deadline]
        if not expired:
            return
        self.stats.watchdog_timeouts += len(expired)
        victims = [active[future][0] for future in expired]
        survivors = [job for future, (job, _) in active.items()
                     if future not in expired]
        active.clear()
        # A hung worker cannot be cancelled through the executor API;
        # reclaiming it means killing the pool, which also takes down the
        # innocent in-flight batches — they requeue at the same attempt.
        self._shutdown(terminate=True)
        pending.extend(survivors)
        for job in victims:
            self._handle_timeout(job, pending, failures)

    def _handle_timeout(self, job: _Job, pending: list[_Job],
                        failures: dict) -> None:
        if len(job.indices) > 1:
            # Split to isolate the hung trial before spending retries.
            mid = len(job.indices) // 2
            self.stats.batches_split += 1
            for half in (job.indices[:mid], job.indices[mid:]):
                pending.append(_Job(list(half), attempt=job.attempt + 1,
                                    crashes=job.crashes, inline=job.inline))
            return
        index = job.indices[0]
        if self.policy.mode == "retry" \
                and job.attempt < self.policy.max_retries:
            self.stats.trial_retries += 1
            pending.append(_Job([index], attempt=job.attempt + 1,
                                crashes=job.crashes, inline=job.inline,
                                ready_at=time.monotonic()
                                + self.policy.retry_delay(job.attempt)))
            return
        message = (f"trial {index} exceeded the "
                   f"{self.policy.batch_timeout:.3g}s batch watchdog "
                   f"(attempt {job.attempt + 1})")
        failure = TrialFailure(
            index=index, error_class="TrialTimeoutError", message=message,
            attempts=job.attempt + 1, stage="timeout",
            exception=TrialTimeoutError(message))
        if self.policy.mode == "fail_fast":
            self._abort(failure, failures)
        failures[index] = failure

    # -- pool lifecycle ------------------------------------------------
    def _ensure_pool(self) -> Executor:
        if self._pool_factory is None:
            raise ConfigurationError("supervisor has no pool factory")
        if self._pool is None:
            self._pool = self._pool_factory()
        return self._pool

    def _shutdown(self, *, terminate: bool) -> None:
        pool = self._pool
        self._pool = None
        if pool is None:
            return
        if terminate:
            # Watchdog / crash path: workers may be hung or dead, so a
            # cooperative shutdown could block forever. Kill first.
            for process in list(getattr(pool, "_processes", {}).values()):
                try:
                    process.terminate()
                except Exception:
                    pass
        try:
            pool.shutdown(wait=not terminate, cancel_futures=True)
        except Exception:
            pass


# ----------------------------------------------------------------------
# Checkpoint / resume
# ----------------------------------------------------------------------
def spec_digest(spec: Any) -> str:
    """A short stable digest of a spec's canonical dict form.

    ``n_trials`` is excluded: the journal keys trials by index, so
    extending a run (``--trials 100`` after journaling 50) is the same
    experiment with more samples, not a different one. Everything that
    changes what a trial *computes* (kind, seed, senders, channel,
    design, params, ...) is included.
    """
    payload = spec.to_dict()
    scenario = dict(payload.get("scenario", {}))
    scenario.pop("n_trials", None)
    payload["scenario"] = scenario
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _encode_extra(value: Any) -> Any:
    """Best-effort JSON encoding of a trial's ``extra`` payload.

    Numpy arrays/scalars and tuples round-trip exactly (tagged); anything
    else falls back to a ``__repr__`` marker. Aggregation (metrics,
    flows, airtime) never reads ``extra``, so a lossy entry cannot change
    a resumed run's summary.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        flat = value.ravel()
        if np.iscomplexobj(flat):
            data = [[float(v.real), float(v.imag)] for v in flat]
        else:
            data = [v.item() for v in flat]
        return {"__nd__": [str(value.dtype), list(value.shape), data]}
    if isinstance(value, tuple):
        return {"__tuple__": [_encode_extra(v) for v in value]}
    if isinstance(value, list):
        return [_encode_extra(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _encode_extra(v) for k, v in value.items()}
    return {"__repr__": repr(value)}


def _decode_extra(value: Any) -> Any:
    if isinstance(value, list):
        return [_decode_extra(v) for v in value]
    if isinstance(value, dict):
        if "__nd__" in value and len(value) == 1:
            dtype, shape, data = value["__nd__"]
            if np.issubdtype(np.dtype(dtype), np.complexfloating):
                flat = [complex(re, im) for re, im in data]
            else:
                flat = data
            return np.array(flat, dtype=dtype).reshape(shape)
        if "__tuple__" in value and len(value) == 1:
            return tuple(_decode_extra(v) for v in value["__tuple__"])
        return {k: _decode_extra(v) for k, v in value.items()}
    return value


class CheckpointJournal:
    """Append-only JSONL journal of completed trials.

    Line 1 is a header binding the journal to a spec digest; every other
    line is one completed trial, keyed by ``(point, index)`` so a sweep
    resumes at grid-point + trial granularity. Lines are flushed as they
    land — a SIGKILLed parent loses at most the trial being written
    (a torn trailing line is tolerated and re-run on resume). Schema:
    ``docs/resilience.md``.
    """

    VERSION = 1

    def __init__(self, path: Path, digest: str) -> None:
        self.path = Path(path)
        self.digest = digest
        self._handle = None

    @classmethod
    def open(cls, path: str | Path, spec: Any, *,
             resume: bool) -> "CheckpointJournal":
        """Open (resume) or start (truncate) a journal for *spec*."""
        journal = cls(Path(path), spec_digest(spec))
        if resume and journal.path.exists():
            journal._validate_header()
        else:
            journal._write_header(spec)
        return journal

    # -- header --------------------------------------------------------
    def _write_header(self, spec: Any) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        header = {"kind": "header", "version": self.VERSION,
                  "digest": self.digest, "scenario": spec.kind,
                  "seed": spec.seed}
        with open(self.path, "w") as handle:
            handle.write(json.dumps(header) + "\n")

    def _validate_header(self) -> None:
        with open(self.path) as handle:
            first = handle.readline()
        try:
            header = json.loads(first)
        except json.JSONDecodeError:
            raise ConfigurationError(
                f"{self.path} is not a checkpoint journal") from None
        if header.get("kind") != "header" \
                or header.get("version") != self.VERSION:
            raise ConfigurationError(
                f"{self.path} is not a version-{self.VERSION} "
                "checkpoint journal")
        if header.get("digest") != self.digest:
            raise ConfigurationError(
                f"checkpoint {self.path} was written by a different "
                f"scenario spec (digest {header.get('digest')!r} != "
                f"{self.digest!r}); refusing to resume")

    # -- writing -------------------------------------------------------
    def record(self, point: str, trial: Any) -> None:
        """Journal one completed trial (flushed immediately)."""
        if self._handle is None:
            self._handle = open(self.path, "a")
        flows = None
        if trial.flows is not None:
            flows = {name: [stats.sent, stats.delivered,
                            stats.airtime_slots, list(stats.bers)]
                     for name, stats in trial.flows.items()}
        entry = {"kind": "trial", "point": point, "index": trial.index,
                 "metrics": {k: float(v) for k, v in trial.metrics.items()},
                 "airtime": float(trial.airtime), "flows": flows,
                 "extra": _encode_extra(trial.extra)}
        self._handle.write(json.dumps(entry) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # -- reading -------------------------------------------------------
    def completed(self, point: str) -> dict[int, Any]:
        """Journaled trials of one grid point, keyed by trial index."""
        from repro.runner.results import TrialResult

        if not self.path.exists():
            return {}
        out: dict[int, TrialResult] = {}
        with open(self.path) as handle:
            for line in handle:
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError:
                    break  # torn trailing line from a killed writer
                if entry.get("kind") != "trial" \
                        or entry.get("point") != point:
                    continue
                flows = None
                if entry["flows"] is not None:
                    flows = {
                        name: FlowStats(sent=sent, delivered=delivered,
                                        airtime_slots=airtime, bers=bers)
                        for name, (sent, delivered, airtime, bers)
                        in entry["flows"].items()}
                out[entry["index"]] = TrialResult(
                    index=entry["index"], metrics=entry["metrics"],
                    flows=flows, airtime=entry["airtime"],
                    extra=_decode_extra(entry["extra"]))
        return out
