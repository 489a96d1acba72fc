"""The parallel Monte-Carlo executor.

:class:`MonteCarloRunner` fans a scenario's trials out across worker
processes. Trials are grouped into contiguous batches so each worker
amortizes its warm-up (imports, reference-signal cache fills) over many
trials of PHY work; per-trial randomness is derived from the trial index
alone (:mod:`repro.runner.seeding`), and aggregation is ordered by trial
index — so for a given root seed, results are **bit-identical whether the
run uses 1 worker or 40, fork or spawn**.

Execution is supervised (:mod:`repro.runner.resilience`): a trial
exception, a hung batch, or a killed worker costs one attempt under the
spec's ``[resilience]`` failure policy instead of aborting the run, a
crashed pool is respawned with only its unfinished batches resubmitted,
and completed trials can be journaled to a ``--checkpoint`` JSONL file
for grid-point + trial granularity resume. Because a retried trial
re-derives the same ``SeedSequence`` child, supervision never changes
what a surviving trial computes — the chaos harness
(:mod:`repro.runner.chaos`) proves it bit-identically.

With ``spec.batch_size > 1`` each batch synthesizes its trials and then
decodes them through the scenario's trial-axis engine in the same
process, ``spec.batch_size`` trials per group; the parent only collects
results. ``n_workers=1`` executes inline with zero process overhead (and
is the reference the parallel path is tested against). The generic
:meth:`map` drives arbitrary module-level trial functions through the
same supervisor, which is how the deterministic figure benchmarks ride
the runner.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.errors import ConfigurationError
from repro.runner.chaos import ChaosInjector
from repro.runner.resilience import (
    BatchTask,
    CheckpointJournal,
    FailurePolicy,
    PoolSupervisor,
    SupervisorStats,
    TrialFailure,
)
from repro.runner.results import RunResult, SweepResult, TrialResult
from repro.runner.scenarios import (
    TrialContext,
    available_scenarios,
    get_scenario,
)
from repro.runner.spec import ScenarioSpec

__all__ = ["MonteCarloRunner"]


def _coerce_trial(raw: Any, index: int) -> TrialResult:
    """Normalize a scenario function's return value to a TrialResult."""
    if isinstance(raw, TrialResult):
        if raw.index != index:
            raw = replace(raw, index=index)
        return raw
    if isinstance(raw, dict):
        return TrialResult(index=index,
                           metrics={k: float(v) for k, v in raw.items()})
    raise ConfigurationError(
        f"scenario returned {type(raw).__name__}; expected dict or "
        "TrialResult")


def _run_trial_guarded(fn: Callable, spec: ScenarioSpec, index: int,
                       attempt: int, injector: ChaosInjector | None
                       ) -> TrialResult | TrialFailure:
    """One fault-isolated trial: a failure is a record, not a poison pill.

    The context is re-derived from ``(spec.seed, index)`` alone, so a
    retried trial (higher *attempt*) computes bit-identically to the
    attempt a fault interrupted.
    """
    try:
        if injector is not None:
            injector.pre_trial(index, attempt)
        return _coerce_trial(
            fn(spec, TrialContext.for_trial(spec.seed, index)), index)
    except Exception as exc:
        return TrialFailure.from_exception(index, exc,
                                           attempts=attempt + 1)


def _scenario_batch(spec_dict: dict, indices: Sequence[int],
                    attempt: int = 0) -> list:
    """Worker entry point: run a contiguous batch of scenario trials.

    Receives the spec in plain-dict form so the call is spawn-safe; the
    per-process reference-signal cache persists across the batch. Each
    trial is individually guarded — the returned list holds a
    ``TrialResult`` or ``TrialFailure`` per index, in order. Inline runs
    call this same function in the parent.
    """
    spec = ScenarioSpec.from_dict(spec_dict)
    injector = ChaosInjector(spec.faults)
    if spec.batch_size > 1:
        return _batched_trials(spec, indices, attempt, injector)
    fn = get_scenario(spec.kind).trial
    return [_run_trial_guarded(fn, spec, i, attempt, injector)
            for i in indices]


def _batched_trials(spec: ScenarioSpec, indices: Sequence[int],
                    attempt: int, injector: ChaosInjector) -> list:
    """Synthesize a batch of trials, then decode it through the trial axis.

    Synthesis draws from the same per-trial :class:`TrialContext`
    streams as the loop path and is guarded per trial: a failed trial
    yields a ``TrialFailure`` in its list position. The survivors are
    decoded ``spec.batch_size`` at a time by the scenario's batched
    engine, so a group never spans two runner batches. A group whose
    decode raises replays through the per-trial loop path, which is
    bit-identical by the batched engine's equivalence contract.
    """
    entry = get_scenario(spec.kind)
    hooks = entry.batched
    outcomes: dict[int, TrialResult | TrialFailure] = {}
    payloads = []
    for i in indices:
        try:
            injector.pre_trial(i, attempt)
            payloads.append(hooks.synthesize(
                spec, TrialContext.for_trial(spec.seed, i)))
        except Exception as exc:
            outcomes[i] = TrialFailure.from_exception(
                i, exc, attempts=attempt + 1, stage="synthesis")
    for lo in range(0, len(payloads), spec.batch_size):
        group = payloads[lo:lo + spec.batch_size]
        try:
            decoded = hooks.decode(spec, group)
            for payload, result in zip(group, decoded):
                outcomes[payload.index] = _coerce_trial(result,
                                                        payload.index)
        except Exception:
            for payload in group:
                outcomes[payload.index] = _run_trial_guarded(
                    entry.trial, spec, payload.index, attempt, None)
    return [outcomes[i] for i in indices]


def _map_batch(fn: Callable, root_seed: int,
               items: Sequence[tuple[int, tuple]], attempt: int = 0
               ) -> list:
    """Worker entry point for :meth:`MonteCarloRunner.map`.

    Calls ``fn(ctx, *args)`` per ``(index, args)`` item; like
    :func:`_scenario_batch`, each call is guarded and the list holds a
    result or ``TrialFailure`` per item, in order.
    """
    out = []
    for index, args in items:
        try:
            out.append(fn(TrialContext.for_trial(root_seed, index), *args))
        except Exception as exc:
            out.append(TrialFailure.from_exception(index, exc,
                                                   attempts=attempt + 1))
    return out


def _kinds_with(flag: str) -> list[str]:
    """Sorted registered kinds whose record sets *flag* (for messages)."""
    return [kind for kind in available_scenarios()
            if getattr(get_scenario(kind), flag)]


def _default_start_method() -> str:
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else methods[0]


@dataclass
class MonteCarloRunner:
    """Runs scenario trials, fanning out across processes when asked.

    - ``n_workers``: process count; 1 (default) runs inline. ``0`` means
      "one per CPU". The pool never starts more processes than CPUs, and
      the supervisor keeps no more batches in flight than it started;
      the batch split still follows ``n_workers``.
    - ``batch_size``: trials per submitted batch; defaults to an even
      split across workers so each process gets one warm batch.
    - ``start_method``: ``fork``/``spawn``/``forkserver``; default picks
      ``fork`` where available. Results do not depend on the choice.
    - ``checkpoint``: path to a JSONL journal; completed trials are
      appended as batches land. ``resume`` re-runs only the trials the
      journal is missing (validated against a digest of the spec).

    Failure handling (policy, retries, watchdog) is configured on the
    *spec* (``[resilience]``), not the runner, so a checked-in scenario
    file carries its own robustness contract.
    """

    n_workers: int = 1
    batch_size: int | None = None
    start_method: str | None = None
    checkpoint: str | Path | None = None
    resume: bool = False

    def __post_init__(self) -> None:
        if self.n_workers == 0:
            self.n_workers = os.cpu_count() or 1
        if self.n_workers < 1:
            raise ConfigurationError("n_workers must be >= 1 (or 0 = auto)")
        if self.batch_size is not None and self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if self.resume and self.checkpoint is None:
            raise ConfigurationError("resume=True needs a checkpoint path")
        self._journal_obj: CheckpointJournal | None = None

    # ------------------------------------------------------------------
    def run(self, spec: ScenarioSpec, *, n_trials: int | None = None,
            _point: str = "") -> RunResult:
        """Run every trial of *spec* and aggregate (see RunResult)."""
        if n_trials is not None:
            spec = replace(spec, n_trials=n_trials)
        entry = get_scenario(spec.kind)
        if entry.designs is not None and spec.design not in entry.designs:
            raise ConfigurationError(
                f"scenario {spec.kind!r} does not support design "
                f"{spec.design!r} (supported: {list(entry.designs)})")
        if not spec.impairments.is_empty and not entry.impairments:
            raise ConfigurationError(
                f"scenario {spec.kind!r} does not apply the spec's "
                "[impairments] table; running it would silently ignore "
                "the pipelines (impairment-aware scenarios: "
                f"{', '.join(_kinds_with('impairments'))})")
        if not spec.deployment.is_empty and not entry.deployment:
            raise ConfigurationError(
                f"scenario {spec.kind!r} does not consume the spec's "
                "[deployment] table; running it would silently fall "
                "back to the default topology (deployment scenarios: "
                f"{', '.join(_kinds_with('deployment'))})")
        spec.deployment.validate()
        spec.check_params()
        if spec.batch_size > 1 and entry.batched is None:
            raise ConfigurationError(
                f"scenario {spec.kind!r} has no batched engine; set "
                f"batch_size = 1 (batched kinds: {_kinds_with('batched')})")
        journal = self._ensure_journal(spec)
        indices = list(range(spec.n_trials))
        completed: dict[int, TrialResult] = {}
        if journal is not None and self.resume:
            completed = {i: t for i, t in journal.completed(_point).items()
                         if i < spec.n_trials}
            indices = [i for i in indices if i not in completed]
        record = None
        if journal is not None:
            record = lambda index, trial: journal.record(_point, trial)  # noqa: E731
        started = time.perf_counter()
        trials, failures, stats = self._execute(spec, indices, record)
        return RunResult(spec=spec,
                         trials=list(completed.values()) + trials,
                         n_workers=self.n_workers,
                         elapsed=time.perf_counter() - started,
                         failures=failures, supervision=stats)

    # -- supervised execution ------------------------------------------
    def _execute(self, spec: ScenarioSpec, indices: list[int],
                 record: Callable[[int, TrialResult], None] | None
                 ) -> tuple[list[TrialResult], list[TrialFailure],
                            SupervisorStats | None]:
        if not indices:
            return [], [], None
        spec_dict = spec.to_dict()
        task = BatchTask(
            submit=lambda pool, idx, attempt: pool.submit(
                _scenario_batch, spec_dict, idx, attempt),
            run_inline=lambda idx, attempt: _scenario_batch(
                spec_dict, idx, attempt))
        return self._supervise(task, indices, spec.resilience, record)

    def _supervise(self, task: BatchTask, indices: list[int],
                   policy: FailurePolicy,
                   on_success: Callable[[int, Any], None] | None = None
                   ) -> tuple[list, list[TrialFailure], SupervisorStats]:
        """The one fan-out path: *indices* in batches under *policy*,
        on the process pool when there is more than one worker and item.
        Returns the results in index order, the failures and the stats."""
        use_pool = self.n_workers > 1 and len(indices) > 1
        supervisor = PoolSupervisor(self._pool if use_pool else None,
                                    policy, window=self._processes(),
                                    on_success=on_success)
        results, failures = supervisor.execute(task, self._batches(indices))
        return ([results[i] for i in sorted(results)], failures,
                supervisor.stats)

    # ------------------------------------------------------------------
    def sweep(self, spec: ScenarioSpec, param: str,
              values: Sequence[Any]) -> SweepResult:
        """Run *spec* once per value of the dotted-path *param*.

        Every grid point reuses the same root seed (common random
        numbers), so along-the-sweep differences are the parameter's
        effect, not resampling noise. With a checkpoint, each grid point
        journals under its own key — a resumed sweep skips completed
        points entirely and picks up a half-finished point at the first
        missing trial.
        """
        if not values:
            raise ConfigurationError("sweep needs at least one value")
        points = []
        for value in values:
            point_spec = spec.with_override(param, value)
            points.append((value, self.run(point_spec,
                                           _point=f"{param}={value!r}")))
        return SweepResult(param=param, points=points)

    def map(self, fn: Callable, n_trials: int | None = None, *,
            seed: int = 0, values: Sequence[Any] | None = None) -> list:
        """Run a bare trial function through the fan-out machinery.

        Without *values*, calls ``fn(ctx)`` for each trial index; with
        *values*, calls ``fn(ctx, value)`` once per value (a deterministic
        grid). *fn* must be module-level (picklable) to use more than one
        worker. Returns results in index order.

        Items run through the same supervisor as :meth:`run`, under the
        default ``fail_fast`` policy, so a failure raises the same way at
        one worker and at N: a :class:`ReproError` from *fn* unchanged,
        anything else as :class:`~repro.errors.RunAbortedError` naming
        the failing item's index, chained to the original exception.
        """
        if values is None:
            if n_trials is None or n_trials < 1:
                raise ConfigurationError("map needs n_trials or values")
            args = [()] * n_trials
        else:
            args = [(value,) for value in values]

        def items(idx: list[int]) -> list[tuple[int, tuple]]:
            return [(i, args[i]) for i in idx]

        task = BatchTask(
            submit=lambda pool, idx, attempt: pool.submit(
                _map_batch, fn, seed, items(idx), attempt),
            run_inline=lambda idx, attempt: _map_batch(
                fn, seed, items(idx), attempt))
        results, _, _ = self._supervise(task, list(range(len(args))),
                                        FailurePolicy())
        return results

    # ------------------------------------------------------------------
    def _ensure_journal(self, spec: ScenarioSpec
                        ) -> CheckpointJournal | None:
        if self.checkpoint is None:
            return None
        if self._journal_obj is None:
            self._journal_obj = CheckpointJournal.open(
                self.checkpoint, spec, resume=self.resume)
        return self._journal_obj

    def _batches(self, items: list) -> list[list]:
        size = self.batch_size
        if size is None:
            size = max(1, -(-len(items) // self.n_workers))
        return [items[i:i + size] for i in range(0, len(items), size)]

    def _processes(self) -> int:
        # More processes than CPUs only time-slice the same cores; the
        # batches (split by n_workers) queue on the ones started.
        return min(self.n_workers, os.cpu_count() or 1)

    def _pool(self) -> ProcessPoolExecutor:
        context = multiprocessing.get_context(
            self.start_method or _default_start_method())
        return ProcessPoolExecutor(max_workers=self._processes(),
                                   mp_context=context)
