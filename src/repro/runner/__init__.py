"""Parallel Monte-Carlo runner (the supported experiment entry point).

Every figure in the paper is a Monte-Carlo sweep over collision
scenarios. This subsystem turns those sweeps into data, declaratively:

- :mod:`repro.runner.spec` — :class:`ScenarioSpec`, a declarative
  description of a collision scenario (senders, channel, backoff, design
  under test) loadable from TOML;
- :mod:`repro.runner.seeding` — deterministic, spawn-safe per-trial
  seeding built on :class:`numpy.random.SeedSequence`;
- :mod:`repro.runner.runner` — :class:`MonteCarloRunner`, which fans
  trials out across worker processes in batches and aggregates
  per-trial metrics into means with confidence intervals;
- :mod:`repro.runner.scenarios` — the scenario registry mapping a spec's
  ``kind`` to a trial function;
- :mod:`repro.runner.cache` — a per-process cache of expensive reference
  signals (preambles, pulse shapers, synchronizers) reused across trials;
- :mod:`repro.runner.resilience` — the supervision layer: per-trial
  fault isolation (:class:`FailurePolicy`, :class:`TrialFailure`), pool
  crash recovery and watchdog timeouts (:class:`PoolSupervisor`), and
  checkpoint/resume journaling (:class:`CheckpointJournal`);
- :mod:`repro.runner.chaos` — deterministic fault injection
  (:class:`FaultSpec`) for proving the supervision layer never changes
  what a surviving trial computes;
- :mod:`repro.runner.cli` — the ``python -m repro`` command line.

Results are bit-identical for a given seed regardless of worker count:
trial *i* always draws from ``SeedSequence(seed, spawn_key=(i,))`` and
aggregation is ordered by trial index. The same holds under faults: a
retried trial re-derives the same child sequence, so chaos-injected runs
agree bit-for-bit with fault-free runs on every surviving trial.
"""

from repro.runner.builders import hidden_pair_scenario
from repro.runner.cache import SignalCache, shared_cache
from repro.runner.chaos import FaultSpec
from repro.runner.resilience import (
    CheckpointJournal,
    FailurePolicy,
    SupervisorStats,
    TrialFailure,
)
from repro.runner.results import (
    RunResult,
    SweepResult,
    TrialResult,
    merge_flow_stats,
)
from repro.runner.runner import MonteCarloRunner
from repro.runner.shm import find_leaked_arenas
from repro.runner.scenarios import (
    TrialContext,
    available_scenarios,
    get_scenario,
    scenario,
    scenario_designs,
)
from repro.runner.seeding import trial_rng, trial_seed, trial_seed_sequence
from repro.runner.spec import (
    BackoffSpec,
    ChannelSpec,
    ImpairmentsSpec,
    ScenarioSpec,
    SenderSpec,
    parse_sweep,
)

__all__ = [
    "BackoffSpec",
    "ChannelSpec",
    "CheckpointJournal",
    "FailurePolicy",
    "FaultSpec",
    "ImpairmentsSpec",
    "MonteCarloRunner",
    "RunResult",
    "ScenarioSpec",
    "SenderSpec",
    "SignalCache",
    "SupervisorStats",
    "SweepResult",
    "TrialContext",
    "TrialFailure",
    "TrialResult",
    "available_scenarios",
    "find_leaked_arenas",
    "get_scenario",
    "hidden_pair_scenario",
    "merge_flow_stats",
    "parse_sweep",
    "scenario",
    "scenario_designs",
    "shared_cache",
    "trial_rng",
    "trial_seed",
    "trial_seed_sequence",
]
