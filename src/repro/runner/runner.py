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
same machinery, which is how the deterministic figure benchmarks ride
the runner.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.errors import ConfigurationError, ReproError
from repro.runner.chaos import ChaosInjector
from repro.runner.resilience import (
    BatchTask,
    CheckpointJournal,
    PoolSupervisor,
    SupervisorStats,
    TrialFailure,
)
from repro.runner.results import RunResult, SweepResult, TrialResult
from repro.runner.scenarios import (
    TrialContext,
    deployment_scenarios,
    get_batched_scenario,
    get_scenario,
    impairment_scenarios,
    scenario_designs,
    scenario_supports_deployment,
    scenario_supports_impairments,
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
    fn = get_scenario(spec.kind)
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
    hooks = get_batched_scenario(spec.kind)
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
            loop_fn = get_scenario(spec.kind)
            for payload in group:
                outcomes[payload.index] = _run_trial_guarded(
                    loop_fn, spec, payload.index, attempt, None)
    return [outcomes[i] for i in indices]


def _map_batch(fn: Callable, root_seed: int,
               items: Sequence[tuple[int, Any]], with_values: bool
               ) -> list[tuple[int, Any]]:
    """Worker entry point for :meth:`MonteCarloRunner.map`."""
    out = []
    for index, value in items:
        ctx = TrialContext.for_trial(root_seed, index)
        out.append((index, fn(ctx, value) if with_values else fn(ctx)))
    return out


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
        supported = scenario_designs(spec.kind)
        if supported is not None and spec.design not in supported:
            raise ConfigurationError(
                f"scenario {spec.kind!r} does not support design "
                f"{spec.design!r} (supported: {list(supported)})")
        if not spec.impairments.is_empty \
                and not scenario_supports_impairments(spec.kind):
            raise ConfigurationError(
                f"scenario {spec.kind!r} does not apply the spec's "
                "[impairments] table; running it would silently ignore "
                "the pipelines (impairment-aware scenarios: "
                f"{', '.join(impairment_scenarios())})")
        if not spec.deployment.is_empty \
                and not scenario_supports_deployment(spec.kind):
            raise ConfigurationError(
                f"scenario {spec.kind!r} does not consume the spec's "
                "[deployment] table; running it would silently fall "
                "back to the default topology (deployment scenarios: "
                f"{', '.join(deployment_scenarios())})")
        spec.deployment.validate()
        if spec.batch_size > 1:
            get_batched_scenario(spec.kind)  # raise on unbatched kinds
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
        use_pool = self.n_workers > 1 and len(indices) > 1
        task = BatchTask(
            submit=lambda pool, idx, attempt: pool.submit(
                _scenario_batch, spec_dict, idx, attempt),
            run_inline=lambda idx, attempt: _scenario_batch(
                spec_dict, idx, attempt))
        supervisor = PoolSupervisor(self._pool if use_pool else None,
                                    spec.resilience,
                                    window=self._processes(),
                                    on_success=record)
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

        A failed batch cancels every batch still queued and raises a
        :class:`ReproError` naming the batch (and first item index) that
        failed, chained to the original exception.
        """
        if values is None:
            if n_trials is None or n_trials < 1:
                raise ConfigurationError("map needs n_trials or values")
            items = [(i, None) for i in range(n_trials)]
            with_values = False
        else:
            items = list(enumerate(values))
            with_values = True
        if self.n_workers == 1 or len(items) <= 1:
            pairs = _map_batch(fn, seed, items, with_values)
        else:
            pairs = []
            batches = self._batches(items)
            with self._pool() as pool:
                futures = {
                    pool.submit(_map_batch, fn, seed, batch, with_values):
                    number for number, batch in enumerate(batches)}
                current = None
                try:
                    for future in as_completed(futures):
                        current = future
                        pairs.extend(future.result())
                except Exception as exc:
                    for other in futures:
                        other.cancel()
                    pool.shutdown(wait=False, cancel_futures=True)
                    number = futures.get(current, -1)
                    first = batches[number][0][0] if number >= 0 else "?"
                    raise ReproError(
                        f"map batch {number} (first item index {first}) "
                        f"failed: {exc}") from exc
        return [result for _, result in sorted(pairs, key=lambda p: p[0])]

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
