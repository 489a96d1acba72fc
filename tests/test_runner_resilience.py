"""The supervision layer: fault isolation, pool recovery, checkpoints.

Every test here runs the *real* execution stack — no mocked pools — with
faults injected by the seeded chaos harness (:mod:`repro.runner.chaos`).
The load-bearing property throughout: **supervision never changes what a
surviving trial computes**. Retried, respawned or resumed trials must
agree bit-for-bit with the fault-free baseline.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import pytest

from repro.errors import (
    ConfigurationError,
    FaultInjectionError,
    RunAbortedError,
)
from repro.runner import (
    FailurePolicy,
    FaultSpec,
    MonteCarloRunner,
    ScenarioSpec,
    TrialFailure,
    find_leaked_arenas,
)
from repro.runner.chaos import ChaosInjector
from repro.runner.cli import main
from repro.runner.resilience import BatchTask, PoolSupervisor


def _spec(n_trials=10, seed=7, **kwargs):
    """A fast, DSP-free scenario (pure-Python greedy scheduling)."""
    return ScenarioSpec(kind="schedule_failure", n_trials=n_trials,
                        seed=seed, **kwargs)


def _metrics(result):
    return [t.metrics for t in result.trials]


RETRY = FailurePolicy(mode="retry", max_retries=3)


# ----------------------------------------------------------------------
class TestFaultSpec:
    def test_draws_deterministic_per_trial_and_attempt(self):
        injector = ChaosInjector(FaultSpec(seed=5), in_worker=True)
        assert (injector._draws(3, 0) == injector._draws(3, 0)).all()
        assert not (injector._draws(3, 0) == injector._draws(3, 1)).all()
        assert not (injector._draws(3, 0) == injector._draws(4, 0)).all()

    def test_draws_pinned(self):
        # The chaos soak's baselines ride on these exact values: the
        # (kill, hang, raise) draws must not move when a fault kind is
        # added or removed.
        injector = ChaosInjector(FaultSpec(seed=5), in_worker=True)
        assert injector._draws(3, 0).tolist() == [
            0.7939791166890952, 0.5093728749194304, 0.7340201078423391]
        assert injector._draws(3, 1).tolist() == [
            0.12414640952120815, 0.01612710810863538, 0.09086655003032107]

    def test_probability_validation(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(kill_worker_prob=1.5)
        with pytest.raises(ConfigurationError):
            FaultSpec(hang_seconds=-1.0)

    def test_shared_memory_corruption_key_rejected(self, tmp_path, capsys):
        # corrupt_shm_slot_prob went with the shared-memory waveform
        # arena; a spec that still sets it fails loudly, not silently.
        with pytest.raises(ConfigurationError,
                           match="corrupt_shm_slot_prob"):
            ScenarioSpec.from_dict({
                "scenario": {"kind": "schedule_failure", "n_trials": 2},
                "faults": {"corrupt_shm_slot_prob": 0.1}})
        with pytest.raises(ConfigurationError,
                           match="corrupt_shm_slot_prob"):
            _spec().with_override("faults.corrupt_shm_slot_prob", 0.1)
        path = tmp_path / "chaos.toml"
        path.write_text('[scenario]\nkind = "schedule_failure"\n'
                        'n_trials = 2\n\n[faults]\n'
                        'corrupt_shm_slot_prob = 0.1\n')
        assert main(["run", str(path)]) == 2
        assert "corrupt_shm_slot_prob" in capsys.readouterr().err

    def test_kill_and_hang_disarmed_in_parent(self):
        # The degraded inline path must always make progress: a spec
        # whose workers would die on every trial still completes inline.
        spec = _spec(n_trials=4,
                     faults=FaultSpec(kill_worker_prob=1.0,
                                      hang_trial_prob=1.0))
        result = MonteCarloRunner(n_workers=1).run(spec)
        assert result.n_completed == 4

    def test_raise_fault_armed_everywhere(self):
        injector = ChaosInjector(FaultSpec(raise_in_trial_prob=1.0),
                                 in_worker=False)
        with pytest.raises(FaultInjectionError):
            injector.pre_trial(0, 0)

    def test_policy_validation(self):
        with pytest.raises(ConfigurationError):
            FailurePolicy(mode="explode")

    def test_spec_tables_round_trip(self):
        spec = _spec(resilience=RETRY,
                     faults=FaultSpec(raise_in_trial_prob=0.25, seed=3))
        again = ScenarioSpec.from_dict(spec.to_dict())
        assert again.resilience == spec.resilience
        assert again.faults == spec.faults
        bumped = spec.with_override("resilience.max_retries", 7)
        assert bumped.resilience.max_retries == 7
        assert bumped.faults == spec.faults
        armed = spec.with_override("faults.kill_worker_prob", 0.5)
        assert armed.faults.kill_worker_prob == 0.5


# ----------------------------------------------------------------------
class TestTrialIsolation:
    def test_retry_bit_identical_inline(self):
        base = MonteCarloRunner(n_workers=1).run(_spec())
        chaotic = _spec(resilience=RETRY,
                        faults=FaultSpec(raise_in_trial_prob=0.4, seed=1))
        result = MonteCarloRunner(n_workers=1).run(chaotic)
        assert result.n_failed == 0 or result.supervision.trial_retries
        # Every completed trial agrees bit-for-bit with the baseline.
        assert _metrics(result)[:result.n_completed] == \
            [t.metrics for t in base.trials if t.index in
             {t2.index for t2 in result.trials}]
        assert result.supervision.trial_retries > 0

    def test_retry_bit_identical_pooled(self):
        base = MonteCarloRunner(n_workers=1).run(_spec())
        chaotic = _spec(resilience=RETRY,
                        faults=FaultSpec(raise_in_trial_prob=0.3, seed=2))
        result = MonteCarloRunner(n_workers=3, batch_size=2).run(chaotic)
        assert result.n_failed == 0
        assert _metrics(result) == _metrics(base)

    def test_skip_records_failures(self):
        spec = _spec(n_trials=6,
                     resilience=FailurePolicy(mode="skip"),
                     faults=FaultSpec(raise_in_trial_prob=1.0))
        result = MonteCarloRunner(n_workers=1).run(spec)
        assert result.n_completed == 0
        assert result.n_failed == 6
        assert result.failure_classes() == {"FaultInjectionError": 6}
        assert all(isinstance(f, TrialFailure) for f in result.failures)
        table = result.format_failure_table()
        assert "6 of 6 trials" in table
        assert "FaultInjectionError" in table

    def test_fail_fast_raises_run_aborted(self):
        spec = _spec(faults=FaultSpec(raise_in_trial_prob=1.0))
        with pytest.raises(RunAbortedError) as excinfo:
            MonteCarloRunner(n_workers=1).run(spec)
        assert excinfo.value.failures
        assert excinfo.value.failures[0].error_class == \
            "FaultInjectionError"

    def test_retry_exhaustion_records_terminal_failure(self):
        spec = _spec(n_trials=3,
                     resilience=FailurePolicy(mode="retry", max_retries=1),
                     faults=FaultSpec(raise_in_trial_prob=1.0))
        result = MonteCarloRunner(n_workers=1).run(spec)
        assert result.n_failed == 3
        assert all(f.attempts == 2 for f in result.failures)


# ----------------------------------------------------------------------
class TestPoolSupervision:
    def test_worker_kill_respawns_and_completes(self):
        base = MonteCarloRunner(n_workers=1).run(_spec(n_trials=12))
        chaotic = _spec(n_trials=12, resilience=RETRY,
                        faults=FaultSpec(kill_worker_prob=0.15, seed=5))
        result = MonteCarloRunner(n_workers=3, batch_size=2).run(chaotic)
        assert result.n_failed == 0
        assert _metrics(result) == _metrics(base)
        assert result.supervision.pool_respawns >= 1

    def test_watchdog_fires_on_injected_hang(self):
        policy = FailurePolicy(mode="retry", max_retries=2,
                               batch_timeout=0.75)
        spec = _spec(n_trials=6, resilience=policy,
                     faults=FaultSpec(hang_trial_prob=0.25,
                                      hang_seconds=20.0, seed=9))
        result = MonteCarloRunner(n_workers=2, batch_size=3).run(spec)
        assert result.supervision.watchdog_timeouts >= 1
        assert result.n_completed + result.n_failed == 6
        base = MonteCarloRunner(n_workers=1).run(_spec(n_trials=6))
        reference = {t.index: t.metrics for t in base.trials}
        for trial in result.trials:
            assert trial.metrics == reference[trial.index]

    def test_persistent_hang_becomes_timeout_failure(self):
        policy = FailurePolicy(mode="skip", batch_timeout=0.5)
        spec = _spec(n_trials=2, resilience=policy,
                     faults=FaultSpec(hang_trial_prob=1.0,
                                      hang_seconds=20.0))
        result = MonteCarloRunner(n_workers=2, batch_size=1).run(spec)
        assert result.n_failed == 2
        assert set(result.failure_classes()) == {"TrialTimeoutError"}

    def test_watchdog_spares_batches_queued_behind_a_hang(self, monkeypatch):
        # More workers than CPUs: the pool starts one process, so the
        # healthy batch must wait unsubmitted rather than queue inside
        # the executor, where the hung batch's deadline would take it too.
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        policy = FailurePolicy(mode="skip", batch_timeout=0.5)
        spec = _spec(n_trials=2, resilience=policy,
                     faults=FaultSpec(hang_trial_prob=0.5,
                                      hang_seconds=20.0, seed=2))
        result = MonteCarloRunner(n_workers=2, batch_size=1).run(spec)
        assert [f.index for f in result.failures] == [0]
        assert set(result.failure_classes()) == {"TrialTimeoutError"}
        assert [t.index for t in result.trials] == [1]

    def test_submit_to_broken_pool_respawns(self):
        # A worker can die after the last collect: the pool then fails
        # the next submit itself, which must cost a respawn, not the run.
        broken = ProcessPoolExecutor(max_workers=1)
        with pytest.raises(BrokenExecutor):
            broken.submit(os._exit, 1).result(timeout=30)
        pools = [broken]
        supervisor = PoolSupervisor(
            lambda: pools.pop() if pools else ProcessPoolExecutor(1),
            FailurePolicy())
        task = BatchTask(
            submit=lambda pool, idx, attempt: pool.submit(list, idx),
            run_inline=lambda idx, attempt: list(idx))
        results, failures = supervisor.execute(task, [[0, 1], [2]])
        assert results == {0: 0, 1: 1, 2: 2}
        assert failures == []
        assert supervisor.stats.pool_respawns == 1


# ----------------------------------------------------------------------
class TestCheckpointResume:
    def test_resume_skips_completed_trials(self, tmp_path):
        spec = _spec()
        base = MonteCarloRunner(n_workers=1).run(spec)
        journal = tmp_path / "run.jsonl"
        MonteCarloRunner(n_workers=1, checkpoint=journal).run(
            spec, n_trials=6)
        resumed = MonteCarloRunner(n_workers=1, checkpoint=journal,
                                   resume=True).run(spec)
        assert resumed.n_completed == spec.n_trials
        assert _metrics(resumed) == _metrics(base)

    def test_resume_rejects_different_spec(self, tmp_path):
        journal = tmp_path / "run.jsonl"
        MonteCarloRunner(n_workers=1, checkpoint=journal).run(_spec(seed=7))
        with pytest.raises(ConfigurationError, match="different scenario"):
            MonteCarloRunner(n_workers=1, checkpoint=journal,
                             resume=True).run(_spec(seed=8))

    def test_resume_without_checkpoint_rejected(self):
        with pytest.raises(ConfigurationError):
            MonteCarloRunner(resume=True)

    def test_torn_trailing_line_tolerated(self, tmp_path):
        spec = _spec()
        journal = tmp_path / "run.jsonl"
        MonteCarloRunner(n_workers=1, checkpoint=journal).run(
            spec, n_trials=5)
        # Simulate a parent killed mid-write: a torn half line at EOF.
        with journal.open("a") as handle:
            handle.write('{"kind": "trial", "point": "", "ind')
        resumed = MonteCarloRunner(n_workers=1, checkpoint=journal,
                                   resume=True).run(spec)
        base = MonteCarloRunner(n_workers=1).run(spec)
        assert _metrics(resumed) == _metrics(base)

    def test_sigkill_parent_then_resume_matches_aggregate(self, tmp_path):
        """The acceptance scenario: SIGKILL the parent mid-run, resume
        from the journal, and land on the same aggregate RunResult."""
        journal = tmp_path / "run.jsonl"
        driver = textwrap.dedent(f"""
            import os, signal
            from repro.runner import MonteCarloRunner, ScenarioSpec
            from repro.runner.resilience import CheckpointJournal

            record = CheckpointJournal.record
            def dying_record(self, point, trial, _n=[0]):
                record(self, point, trial)
                _n[0] += 1
                if _n[0] >= 4:
                    os.kill(os.getpid(), signal.SIGKILL)
            CheckpointJournal.record = dying_record
            spec = ScenarioSpec(kind="schedule_failure", n_trials=10,
                                seed=7)
            MonteCarloRunner(n_workers=1,
                             checkpoint={str(journal)!r}).run(spec)
        """)
        env = dict(os.environ)
        root = Path(__file__).resolve().parents[1]
        env["PYTHONPATH"] = str(root / "src")
        proc = subprocess.run([sys.executable, "-c", driver], env=env,
                              capture_output=True, timeout=120)
        assert proc.returncode == -signal.SIGKILL
        lines = journal.read_text().splitlines()
        assert len(lines) >= 5  # header + the journaled trials
        resumed = MonteCarloRunner(n_workers=1, checkpoint=journal,
                                   resume=True).run(_spec())
        base = MonteCarloRunner(n_workers=1).run(_spec())
        assert _metrics(resumed) == _metrics(base)
        assert resumed.summary() == base.summary()

    def test_kill_chaos_mid_sweep_resumes_identically(self, tmp_path):
        """Worker kills during a checkpointed sweep; a resumed sweep
        reproduces the fault-free sweep bit-for-bit without re-running
        journaled grid points."""
        spec = _spec(n_trials=6)
        values = [2, 3, 4]
        base = MonteCarloRunner(n_workers=1).sweep(
            spec, "params.n_senders", values)
        journal = tmp_path / "sweep.jsonl"
        chaotic = replace(spec, resilience=RETRY,
                          faults=FaultSpec(kill_worker_prob=0.1, seed=4))
        first = MonteCarloRunner(n_workers=2, batch_size=2,
                                 checkpoint=journal).sweep(
            chaotic, "params.n_senders", values)
        for (_, got), (_, want) in zip(first.points, base.points):
            assert _metrics(got) == _metrics(want)
        resumed = MonteCarloRunner(n_workers=1, checkpoint=journal,
                                   resume=True).sweep(
            chaotic, "params.n_senders", values)
        for (_, got), (_, want) in zip(resumed.points, base.points):
            assert _metrics(got) == _metrics(want)
            assert got.summary() == want.summary()

    def test_journal_round_trips_flows_and_extra(self, tmp_path):
        # hidden_pair_decode trials carry per-flow FlowStats; the journal
        # must reproduce them exactly for resumed aggregation.
        spec = ScenarioSpec(kind="hidden_pair_decode", n_trials=4, seed=3,
                            payload_bits=64)
        base = MonteCarloRunner(n_workers=1).run(spec)
        journal = tmp_path / "run.jsonl"
        MonteCarloRunner(n_workers=1, checkpoint=journal).run(
            spec, n_trials=2)
        resumed = MonteCarloRunner(n_workers=1, checkpoint=journal,
                                   resume=True).run(spec)
        assert _metrics(resumed) == _metrics(base)
        assert {n: (s.sent, s.delivered, s.airtime_slots, s.bers)
                for n, s in resumed.flows().items()} == \
            {n: (s.sent, s.delivered, s.airtime_slots, s.bers)
             for n, s in base.flows().items()}
        assert resumed.total_airtime == base.total_airtime


# ----------------------------------------------------------------------
class TestArenaHygiene:
    def test_no_leaked_arenas_after_chaos_run(self):
        spec = ScenarioSpec(
            kind="hidden_pair_decode", n_trials=8, seed=11, batch_size=4,
            payload_bits=64,
            resilience=FailurePolicy(mode="retry", max_retries=3),
            faults=FaultSpec(kill_worker_prob=0.1, seed=2))
        result = MonteCarloRunner(n_workers=3).run(spec)
        assert result.n_completed == 8
        assert find_leaked_arenas() == []

    def test_no_leaked_arena_when_worker_raises_mid_batch(self):
        # No shared-memory segment may outlive a run, even when
        # synthesis fails inside the pool and fail_fast aborts it.
        spec = ScenarioSpec(
            kind="hidden_pair_decode", n_trials=6, seed=1, batch_size=3,
            payload_bits=64,
            faults=FaultSpec(raise_in_trial_prob=1.0))
        with pytest.raises(RunAbortedError):
            MonteCarloRunner(n_workers=2).run(spec)
        assert find_leaked_arenas() == []


# ----------------------------------------------------------------------
def _map_boom(ctx, value):
    if value == "boom":
        raise ValueError("injected map failure")
    return value


def _map_config_boom(ctx, value):
    if value == "boom":
        raise ConfigurationError("injected repro failure")
    return value


class TestMapFailures:
    """``map`` runs under the same supervisor as ``run``: a failure
    raises the same exception, naming the failing item, at any worker
    count."""

    VALUES = ["ok0", "boom", "ok2", "ok3", "ok4", "ok5"]

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_failed_item_is_named(self, n_workers):
        runner = MonteCarloRunner(n_workers=n_workers, batch_size=1)
        with pytest.raises(RunAbortedError,
                           match=r"trial 1 failed .*injected map failure"
                           ) as info:
            runner.map(_map_boom, values=self.VALUES)
        assert isinstance(info.value.__cause__, ValueError)
        assert [f.index for f in info.value.failures] == [1]

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_repro_error_raises_unchanged(self, n_workers):
        runner = MonteCarloRunner(n_workers=n_workers, batch_size=1)
        with pytest.raises(ConfigurationError,
                           match="injected repro failure"):
            runner.map(_map_config_boom, values=self.VALUES)


# ----------------------------------------------------------------------
class TestCli:
    def _write_toml(self, tmp_path, extra=""):
        path = tmp_path / "scenario.toml"
        path.write_text(textwrap.dedent(f"""
            [scenario]
            kind = "schedule_failure"
            n_trials = 6
            seed = 7
            {extra}
        """))
        return path

    def test_failure_summary_printed(self, tmp_path, capsys):
        from repro.runner.cli import main
        path = self._write_toml(tmp_path, textwrap.dedent("""
            [resilience]
            mode = "skip"

            [faults]
            raise_in_trial_prob = 1.0
        """))
        assert main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "failures: 6 of 6 trials" in out
        assert "FaultInjectionError" in out

    def test_fail_fast_exit_code_and_summary(self, tmp_path, capsys):
        from repro.runner.cli import main
        path = self._write_toml(tmp_path, textwrap.dedent("""
            [faults]
            raise_in_trial_prob = 1.0
        """))
        assert main(["run", str(path)]) == 3
        err = capsys.readouterr().err
        assert "run aborted" in err
        assert "FaultInjectionError" in err

    def test_checkpoint_and_resume_flags(self, tmp_path, capsys):
        from repro.runner.cli import main
        path = self._write_toml(tmp_path)
        journal = tmp_path / "run.jsonl"
        assert main(["run", str(path), "--checkpoint", str(journal),
                     "--trials", "3"]) == 0
        capsys.readouterr()
        assert main(["run", str(path), "--checkpoint", str(journal),
                     "--resume", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_failed"] == 0
        reference = MonteCarloRunner(n_workers=1).run(_spec(n_trials=6))
        assert payload["metrics"] == json.loads(
            json.dumps(reference.summary()))
