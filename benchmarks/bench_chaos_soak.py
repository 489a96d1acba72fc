"""Chaos soak: every fault kind at once, zero lost trials, bit-identity.

Unlike the figure benchmarks this one measures the *supervision layer*
(``docs/resilience.md``): a Monte-Carlo run is soaked with seeded worker
kills, injected trial exceptions and hangs (:mod:`repro.runner.chaos`),
and must still deliver **every** trial with metrics bit-identical to a
fault-free run — proving that retries, pool respawns and watchdog
recovery never change what a surviving trial computes. The soak also
audits ``/dev/shm`` afterwards: a crashed worker must never leak an
arena.

Two soaks cover both execution modes:

- **loop path** — the fast scheduling scenario under the acceptance fault
  mix (5% kills, 2% exceptions, 1% hangs);
- **batched path** — in-worker synthesis and trial-axis decode under
  kills. Its spec also arms 10% shared-memory corruption, but runner
  trials never cross processes as samples: that fault applies only to
  the multi-cell waveform arena (``tests/test_multicell_parallel.py``)
  and has nothing to corrupt here.

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
SHM_FAULTS = FaultSpec(kill_worker_prob=0.05, corrupt_shm_slot_prob=0.10,
                       seed=5)

LOOP_SPEC = ScenarioSpec(kind="schedule_failure", n_trials=60, seed=SEED,
                         resilience=RETRY, faults=LOOP_FAULTS)
SHM_SPEC = ScenarioSpec(kind="hidden_pair_decode", n_trials=12, seed=SEED,
                        batch_size=4, params={"payload_bits": 64},
                        resilience=RETRY, faults=SHM_FAULTS)


def soak():
    clean_loop = MonteCarloRunner(n_workers=1).run(
        replace(LOOP_SPEC, faults=FaultSpec()))
    chaos_loop = MonteCarloRunner(n_workers=4, batch_size=4).run(LOOP_SPEC)
    clean_shm = MonteCarloRunner(n_workers=1).run(
        replace(SHM_SPEC, faults=FaultSpec(), batch_size=1))
    chaos_shm = MonteCarloRunner(n_workers=4).run(SHM_SPEC)
    return clean_loop, chaos_loop, clean_shm, chaos_shm


def test_chaos_soak(benchmark, record_table):
    clean_loop, chaos_loop, clean_shm, chaos_shm = benchmark.pedantic(
        soak, rounds=1, iterations=1)
    loop_stats = chaos_loop.supervision.as_dict()
    shm_stats = chaos_shm.supervision.as_dict()
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
        f"batch soak: {SHM_SPEC.n_trials} trials, 4 workers, faults "
        f"kill={SHM_FAULTS.kill_worker_prob:.0%} "
        f"corrupt={SHM_FAULTS.corrupt_shm_slot_prob:.0%} "
        "(multi-cell arena only; no-op here)",
        f"            completed={chaos_shm.n_completed} "
        f"failed={chaos_shm.n_failed} "
        f"respawns={shm_stats['pool_respawns']} "
        f"retries={shm_stats['trial_retries']} "
        f"({chaos_shm.elapsed:.1f}s wall)",
        "bit-identity: chaos == fault-free on every trial (both modes)",
        f"leaked arenas after soak: {len(find_leaked_arenas())}",
    ]
    record_table("chaos_soak", "Chaos-injection soak", lines)
    # Zero lost trials: every index completes despite the fault mix.
    assert chaos_loop.n_failed == 0
    assert chaos_loop.n_completed == LOOP_SPEC.n_trials
    assert chaos_shm.n_failed == 0
    assert chaos_shm.n_completed == SHM_SPEC.n_trials
    # Bit-identity: supervision never changes what a trial computes.
    assert [t.metrics for t in chaos_loop.trials] == \
        [t.metrics for t in clean_loop.trials]
    assert [t.metrics for t in chaos_shm.trials] == \
        [t.metrics for t in clean_shm.trials]
    assert chaos_shm.summary() == clean_shm.summary()
    # The chaos actually engaged (otherwise the soak proves nothing)...
    assert loop_stats["pool_respawns"] + loop_stats["trial_retries"] > 0
    # ...and a crashed/corrupted run leaks no shared memory.
    assert find_leaked_arenas() == []
