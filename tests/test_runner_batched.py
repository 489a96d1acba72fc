"""Batched runner execution: seed invariance, supervision, spec plumbing.

``ScenarioSpec.batch_size`` is a throughput knob, never a semantics
knob: per-trial randomness is still ``SeedSequence(root_seed,
spawn_key=(i,))`` drawn in the loop path's order, so for a given seed
the per-trial FlowStats and metrics are identical for any batch size ×
worker count combination (the batched analogue of the runner's existing
1-vs-N-workers guarantee). Each runner batch synthesizes and decodes
its own trials, so these tests also pin pooled runs whose decode groups
are cut short by the runner batch, supervised retries and checkpoint
resume of batched runs, and the spec/registry plumbing around the
opt-in.
"""

import json
from dataclasses import replace

import pytest

from repro.errors import ConfigurationError, ReproError
from repro.runner import FailurePolicy, FaultSpec, MonteCarloRunner, ScenarioSpec
from repro.runner.scenarios import get_scenario
from repro.zigzag.batch import BatchedPairDecoder


def _spec(batch_size: int = 1, n_trials: int = 10,
          seed: int = 3) -> ScenarioSpec:
    return ScenarioSpec(kind="hidden_pair_decode", n_trials=n_trials,
                        seed=seed, payload_bits=64,
                        batch_size=batch_size)


def _flow_fingerprint(result) -> list:
    """Per-trial (metrics, per-flow sent/delivered/bers) in trial order —
    everything a sweep aggregates from."""
    out = []
    for trial in sorted(result.trials, key=lambda t: t.index):
        flows = {
            name: (stats.sent, stats.delivered, tuple(stats.bers))
            for name, stats in sorted(trial.flows.items())
        }
        out.append((trial.index, dict(trial.metrics), flows))
    return out


class TestBatchSizeInvariance:
    @pytest.fixture(scope="class")
    def loop_reference(self):
        """The unbatched single-worker run every combination must equal."""
        return _flow_fingerprint(
            MonteCarloRunner(n_workers=1).run(_spec(batch_size=1)))

    @pytest.mark.parametrize("batch_size", [2, 3, 8, 32])
    def test_batch_size_does_not_change_results(self, batch_size,
                                                loop_reference):
        result = MonteCarloRunner(n_workers=1).run(_spec(batch_size))
        assert _flow_fingerprint(result) == loop_reference

    @pytest.mark.parametrize("n_workers", [2, 3])
    def test_worker_count_does_not_change_results(self, n_workers,
                                                  loop_reference):
        """Pooled batched decode (workers > 1) must agree with the
        inline path."""
        result = MonteCarloRunner(n_workers=n_workers).run(_spec(4))
        assert _flow_fingerprint(result) == loop_reference

    def test_same_seed_same_flowstats_across_modes(self):
        """The satellite contract verbatim: same seeds => same FlowStats
        regardless of batch size or worker count."""
        fingerprints = [
            _flow_fingerprint(
                MonteCarloRunner(n_workers=w).run(_spec(b, seed=11)))
            for b, w in ((1, 1), (3, 1), (8, 2))
        ]
        assert all(fp == fingerprints[0] for fp in fingerprints[1:])

    def test_different_seeds_differ(self):
        """Fingerprint sanity: at a noisy operating point the comparison
        actually distinguishes runs (so the invariance assertions above
        aren't vacuously equal)."""
        def noisy(seed):
            spec = ScenarioSpec(kind="hidden_pair_decode", n_trials=10,
                                seed=seed, payload_bits=64, batch_size=4,
                                params={"snr_db": 2.0})
            return _flow_fingerprint(
                MonteCarloRunner(n_workers=1).run(spec))
        assert noisy(3) != noisy(4)

    def test_raising_batch_decode_replays_loop_path(self, monkeypatch,
                                                    loop_reference):
        """A group whose trial-axis decode raises is replayed through the
        per-trial loop path, bit-identically and without failures."""
        calls = []

        def boom(self, trials):
            calls.append(len(trials))
            raise ReproError("injected batch decode failure")

        monkeypatch.setattr(BatchedPairDecoder, "decode_batch", boom)
        result = MonteCarloRunner(n_workers=1).run(_spec(batch_size=4))
        assert calls == [4, 4, 2]
        assert result.failures == []
        assert _flow_fingerprint(result) == loop_reference


class TestSpecPlumbing:
    def test_batch_size_round_trips(self):
        spec = _spec(batch_size=16)
        again = ScenarioSpec.from_dict(spec.to_dict())
        assert again.batch_size == 16
        assert again == spec

    def test_default_is_loop_path(self):
        assert ScenarioSpec(kind="pair").batch_size == 1

    def test_invalid_batch_size_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(kind="pair", batch_size=0)
        with pytest.raises(ConfigurationError):
            ScenarioSpec(kind="pair", batch_size=-2)

    def test_registry_gates_unbatched_scenarios(self):
        assert get_scenario("hidden_pair_decode").batched is not None
        assert get_scenario("pair").batched is None
        runner = MonteCarloRunner(n_workers=1)
        with pytest.raises(ConfigurationError, match="no batched engine"):
            runner.run(ScenarioSpec(kind="pair", n_trials=2,
                                    batch_size=4))

    def test_removed_verify_shm_knob_rejected(self):
        data = _spec(batch_size=4).to_dict()
        data["resilience"] = {"mode": "retry", "verify_shm": "on"}
        with pytest.raises(ConfigurationError, match="verify_shm"):
            ScenarioSpec.from_dict(data)
        with pytest.raises(ConfigurationError, match="verify_shm"):
            _spec().with_override("resilience.verify_shm", "on")


class TestPooledBatches:
    """Decode groups live inside one runner batch: with a runner
    ``batch_size`` of 3 and ``spec.batch_size`` 8, every group is cut to
    3 trials and each worker handles several batches."""

    @pytest.fixture(scope="class")
    def inline_reference(self):
        return _flow_fingerprint(
            MonteCarloRunner(n_workers=1).run(_spec(8, n_trials=12)))

    @pytest.mark.parametrize("n_workers", [2, 3])
    def test_short_groups_equal_inline(self, n_workers, inline_reference):
        runner = MonteCarloRunner(n_workers=n_workers, batch_size=3)
        result = runner.run(_spec(8, n_trials=12))
        assert _flow_fingerprint(result) == inline_reference

    def test_killed_worker_redoes_synthesis_and_decode(self,
                                                       inline_reference):
        chaotic = replace(
            _spec(8, n_trials=12),
            resilience=FailurePolicy(mode="retry", max_retries=3),
            faults=FaultSpec(kill_worker_prob=0.15, seed=5))
        result = MonteCarloRunner(n_workers=2, batch_size=3).run(chaotic)
        assert result.supervision.pool_respawns >= 1
        assert result.n_failed == 0
        assert _flow_fingerprint(result) == inline_reference

    def test_checkpoint_resumes_at_first_missing_trial(self, tmp_path,
                                                       inline_reference):
        spec = _spec(8, n_trials=12)
        journal = tmp_path / "batched.jsonl"
        MonteCarloRunner(n_workers=2, batch_size=3,
                         checkpoint=journal).run(spec, n_trials=5)
        resumed = MonteCarloRunner(n_workers=2, batch_size=3,
                                   checkpoint=journal,
                                   resume=True).run(spec)
        assert _flow_fingerprint(resumed) == inline_reference
        lines = [json.loads(line)
                 for line in journal.read_text().splitlines()[1:]]
        # Trials 0-4 were journaled once by the first run; the resumed
        # run journaled only 5-11, each exactly once.
        assert sorted(entry["index"] for entry in lines[:5]) == \
            list(range(5))
        assert sorted(entry["index"] for entry in lines[5:]) == \
            list(range(5, 12))
