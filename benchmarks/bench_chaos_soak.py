"""Chaos soak: every fault kind at once, zero lost trials, bit-identity.

Unlike the figure benchmarks this one measures the *supervision layer*
(``docs/resilience.md``): a Monte-Carlo run is soaked with seeded worker
kills, injected trial exceptions and hangs (:mod:`repro.runner.chaos`),
and must still deliver **every** trial with metrics bit-identical to a
fault-free run — proving that retries, pool respawns and watchdog
recovery never change what a surviving trial computes. The soak also
audits ``/dev/shm`` afterwards: no run may leave a shared-memory
segment behind.

Two soaks cover both execution modes:

- **loop path** — the fast scheduling scenario under the acceptance fault
  mix (5% kills, 2% exceptions, 1% hangs);
- **batched path** — in-worker synthesis and trial-axis decode under
  kills.

Equivalent CLI::

    python -m repro run examples/scenarios/chaos_soak.toml --workers 4
"""

from dataclasses import replace

from repro.runner import (
    FailurePolicy,
    FaultSpec,
    MonteCarloRunner,
    ScenarioSpec,
    find_leaked_arenas,
)

SEED = 17
RETRY = FailurePolicy(mode="retry", max_retries=4, backoff_base=0.0,
                      batch_timeout=1.5)

# The acceptance fault mix: 5% kills / 2% exceptions / 1% hangs.
LOOP_FAULTS = FaultSpec(kill_worker_prob=0.05, raise_in_trial_prob=0.02,
                        hang_trial_prob=0.01, hang_seconds=10.0, seed=5)
BATCH_FAULTS = FaultSpec(kill_worker_prob=0.05, seed=5)

LOOP_SPEC = ScenarioSpec(kind="schedule_failure", n_trials=60, seed=SEED,
                         resilience=RETRY, faults=LOOP_FAULTS)
BATCH_SPEC = ScenarioSpec(kind="hidden_pair_decode", n_trials=12,
                          seed=SEED, batch_size=4,
                          params={"payload_bits": 64},
                          resilience=RETRY, faults=BATCH_FAULTS)


def soak():
    clean_loop = MonteCarloRunner(n_workers=1).run(
        replace(LOOP_SPEC, faults=FaultSpec()))
    chaos_loop = MonteCarloRunner(n_workers=4, batch_size=4).run(LOOP_SPEC)
    clean_batch = MonteCarloRunner(n_workers=1).run(
        replace(BATCH_SPEC, faults=FaultSpec(), batch_size=1))
    chaos_batch = MonteCarloRunner(n_workers=4).run(BATCH_SPEC)
    return clean_loop, chaos_loop, clean_batch, chaos_batch


def test_chaos_soak(benchmark, record_table):
    clean_loop, chaos_loop, clean_batch, chaos_batch = benchmark.pedantic(
        soak, rounds=1, iterations=1)
    loop_stats = chaos_loop.supervision.as_dict()
    batch_stats = chaos_batch.supervision.as_dict()
    lines = [
        f"loop soak : {LOOP_SPEC.n_trials} trials, 4 workers, faults "
        f"kill={LOOP_FAULTS.kill_worker_prob:.0%} "
        f"raise={LOOP_FAULTS.raise_in_trial_prob:.0%} "
        f"hang={LOOP_FAULTS.hang_trial_prob:.0%}",
        f"            completed={chaos_loop.n_completed} "
        f"failed={chaos_loop.n_failed} "
        f"respawns={loop_stats['pool_respawns']} "
        f"retries={loop_stats['trial_retries']} "
        f"watchdog={loop_stats['watchdog_timeouts']} "
        f"({chaos_loop.elapsed:.1f}s wall)",
        f"batch soak: {BATCH_SPEC.n_trials} trials, 4 workers, faults "
        f"kill={BATCH_FAULTS.kill_worker_prob:.0%}",
        f"            completed={chaos_batch.n_completed} "
        f"failed={chaos_batch.n_failed} "
        f"respawns={batch_stats['pool_respawns']} "
        f"retries={batch_stats['trial_retries']} "
        f"({chaos_batch.elapsed:.1f}s wall)",
        "bit-identity: chaos == fault-free on every trial (both modes)",
        f"leaked shm segments after soak: {len(find_leaked_arenas())}",
    ]
    record_table("chaos_soak", "Chaos-injection soak", lines)
    # Zero lost trials: every index completes despite the fault mix.
    assert chaos_loop.n_failed == 0
    assert chaos_loop.n_completed == LOOP_SPEC.n_trials
    assert chaos_batch.n_failed == 0
    assert chaos_batch.n_completed == BATCH_SPEC.n_trials
    # Bit-identity: supervision never changes what a trial computes.
    assert [t.metrics for t in chaos_loop.trials] == \
        [t.metrics for t in clean_loop.trials]
    assert [t.metrics for t in chaos_batch.trials] == \
        [t.metrics for t in clean_batch.trials]
    assert chaos_batch.summary() == clean_batch.summary()
    # The chaos actually engaged (otherwise the soak proves nothing)...
    assert loop_stats["pool_respawns"] + loop_stats["trial_retries"] > 0
    # ...and a crashed run leaks no shared memory.
    assert find_leaked_arenas() == []
