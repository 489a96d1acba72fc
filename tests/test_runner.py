"""The Monte-Carlo runner subsystem: spec, seeding, cache, execution."""

import multiprocessing
import os
import pathlib
import re
import time

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.mac.backoff import ExponentialBackoff, FixedWindowBackoff
from repro.phy.preamble import PREAMBLE
from repro.phy.pulse import SHAPER
from repro.runner import (
    MonteCarloRunner,
    RunResult,
    ScenarioSpec,
    SenderSpec,
    TrialResult,
    merge_flow_stats,
    parse_sweep,
    trial_rng,
    trial_seed,
)
from repro.runner.cache import SignalCache, cached_preamble, cached_shaper
from repro.runner.scenarios import (
    TrialContext,
    available_scenarios,
    get_scenario,
)
from repro.runner.seeding import trial_seeds
from repro.runner.spec import BackoffSpec
from repro.testbed.experiment import Design, run_capture_sweep_point
from repro.testbed.metrics import FlowStats

EXAMPLE_SCENARIOS = pathlib.Path(__file__).resolve().parents[1] \
    / "examples" / "scenarios"


class TestSeeding:
    def test_trial_rng_deterministic(self):
        a = trial_rng(7, 3).standard_normal(4)
        b = trial_rng(7, 3).standard_normal(4)
        assert np.array_equal(a, b)

    def test_trials_independent(self):
        a = trial_rng(7, 0).standard_normal(4)
        b = trial_rng(7, 1).standard_normal(4)
        assert not np.array_equal(a, b)

    def test_trial_seed_stable_and_distinct(self):
        assert trial_seed(0, 5) == trial_seed(0, 5)
        seeds = trial_seeds(0, 50)
        assert len(set(seeds)) == 50
        assert all(0 <= s < (1 << 63) for s in seeds)

    def test_context_matches_helpers(self):
        ctx = TrialContext.for_trial(9, 2)
        assert ctx.seed == trial_seed(9, 2)
        assert np.array_equal(ctx.rng.standard_normal(3),
                              trial_rng(9, 2).standard_normal(3))


class TestSpec:
    def test_round_trip(self):
        spec = ScenarioSpec(
            kind="pair", design="802.11",
            senders=(SenderSpec("a", 12.0), SenderSpec("b", 9.0)),
            backoff=BackoffSpec(kind="exponential"),
            n_trials=3, seed=5, params={"snr_db": 1.5})
        again = ScenarioSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_from_toml(self, tmp_path):
        path = tmp_path / "s.toml"
        path.write_text("""
[scenario]
kind = "pair"
n_trials = 2

[[sender]]
name = "a"
snr_db = 10.0

[backoff]
kind = "exponential"
cw_min = 15

[params]
snr_db = 9.0
""")
        spec = ScenarioSpec.from_toml(path)
        assert spec.kind == "pair" and spec.n_trials == 2
        assert spec.senders[0].snr_db == 10.0
        assert spec.backoff.cw_min == 15
        assert spec.param("snr_db") == 9.0

    @pytest.mark.parametrize("path", sorted(EXAMPLE_SCENARIOS.glob("*.toml")),
                             ids=lambda path: path.stem)
    def test_example_scenario_loads(self, path):
        """Every shipped example parses, round-trips, and names a
        registered kind that accepts its design and tables."""
        spec = ScenarioSpec.from_toml(path)
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec
        record = get_scenario(spec.kind)
        assert record.designs is None or spec.design in record.designs
        assert spec.deployment.is_empty or record.deployment
        assert spec.impairments.is_empty or record.impairments

    def test_unknown_table_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec.from_dict({"scenario": {"kind": "pair"},
                                    "typo_table": {}})

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(kind="pair", design="wifi7")
        with pytest.raises(ConfigurationError):
            ScenarioSpec(kind="pair", n_trials=0)
        with pytest.raises(ConfigurationError):
            ScenarioSpec(kind="pair", sense_probability=1.5)

    def test_overrides(self):
        spec = ScenarioSpec(kind="pair",
                            senders=(SenderSpec("a", 12.0),))
        assert spec.with_override("n_trials", 9).n_trials == 9
        # The [channel] table is gone: its overrides fail loudly.
        with pytest.raises(ConfigurationError, match="channel.noise_power"):
            spec.with_override("channel.noise_power", 0.5)
        assert spec.with_override("backoff.cw", 32).backoff.cw == 32
        assert spec.with_override("sender.a.snr_db", 14.0) \
            .senders[0].snr_db == 14.0
        # No-op value is still a valid override (sweep grids hit this).
        assert spec.with_override("sender.a.snr_db", 12.0) \
            .senders[0].snr_db == 12.0
        assert spec.with_override("params.snr_db", 3).param("snr_db") == 3
        # A bare key that is no spec field is a [params] key.
        assert spec.with_override("snr_db", 8.0).param("snr_db") == 8.0
        # ... and only a declared one.
        for key in ("params.q", "max_rounds", "sinr_db"):
            with pytest.raises(ConfigurationError,
                               match=f"'pair' has no \\[params\\] key "
                                     f"'{key.removeprefix('params.')}'"):
                spec.with_override(key, 3)
        with pytest.raises(ConfigurationError):
            spec.with_override("sender.nobody.snr_db", 1.0)
        with pytest.raises(ConfigurationError):
            spec.with_override("nested.unknown.path", 1.0)

    def test_param_reads_the_declared_default(self):
        assert ScenarioSpec(kind="capture").param("sinr_db") == 8.0
        assert ScenarioSpec(kind="capture", params={"sinr_db": 2.0}) \
            .param("sinr_db") == 2.0
        assert ScenarioSpec(kind="pair").param("snr_db") is None
        # A typo in a trial function fails instead of reading None.
        with pytest.raises(ConfigurationError,
                           match="'capture' has no \\[params\\] key 'sinr'"):
            ScenarioSpec(kind="capture").param("sinr")

    @pytest.mark.parametrize("table", ["channel", "backoff", "deployment",
                                       "resilience", "faults"])
    def test_unknown_table_field_override(self, table):
        key = f"{table}.bogus"
        with pytest.raises(ConfigurationError, match=re.escape(key)):
            ScenarioSpec(kind="pair").with_override(key, 1)

    def test_backoff_build(self):
        assert isinstance(BackoffSpec(kind="fixed", cw=8).build(),
                          FixedWindowBackoff)
        expo = BackoffSpec(kind="exponential", cw_min=3, cw_max=7).build()
        assert isinstance(expo, ExponentialBackoff)
        with pytest.raises(ConfigurationError):
            BackoffSpec(kind="bogus").build()

    def test_parse_sweep(self):
        key, values = parse_sweep("snr_db=0:20:2")
        assert key == "snr_db"
        assert values == [0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20]
        key, values = parse_sweep("design=zigzag,802.11")
        assert key == "design" and values == ["zigzag", "802.11"]
        assert parse_sweep("x=1.5")[1] == [1.5]
        with pytest.raises(ConfigurationError):
            parse_sweep("no_equals")
        with pytest.raises(ConfigurationError):
            parse_sweep("x=0:10:-1")


class TestCache:
    def test_memoizes_and_counts(self):
        cache = SignalCache()
        calls = []
        assert cache.get("k", lambda: calls.append(1) or 42) == 42
        assert cache.get("k", lambda: calls.append(1) or 42) == 42
        assert len(calls) == 1
        assert cache.hits == 1 and cache.misses == 1 and len(cache) == 1
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0

    def test_cached_reference_objects_are_shared(self):
        """The cache hands back the air interface's constants; a
        preamble of any other length does not exist."""
        assert cached_preamble(32) is cached_preamble() is PREAMBLE
        assert cached_shaper() is SHAPER
        with pytest.raises(ConfigurationError, match="fixed at 32"):
            cached_preamble(16)


class TestResults:
    def _run(self):
        trials = [
            TrialResult(index=1, metrics={"x": 2.0}, airtime=1.0),
            TrialResult(index=0, metrics={"x": 1.0}, airtime=2.0),
        ]
        return RunResult(spec=None, trials=trials)

    def test_sorted_and_aggregated(self):
        run = self._run()
        assert [t.index for t in run.trials] == [0, 1]
        assert run.mean("x") == pytest.approx(1.5)
        mean, lo, hi = run.ci("x")
        assert lo <= mean <= hi
        assert run.total_airtime == pytest.approx(3.0)
        assert run.summary()["x"]["n"] == 2
        with pytest.raises(ConfigurationError):
            run.series("missing")

    def test_flow_merge(self):
        a, b = FlowStats(), FlowStats()
        a.record(0.0, airtime=1.0)
        b.record(1.0, airtime=2.0)
        merged = merge_flow_stats([a, b])
        assert merged.sent == 2 and merged.delivered == 1
        assert merged.airtime_slots == pytest.approx(3.0)
        run = RunResult(spec=None, trials=[
            TrialResult(index=0, metrics={}, flows={"A": a}),
            TrialResult(index=1, metrics={}, flows={"A": b}),
        ])
        assert run.flows()["A"].sent == 2


SPEC = ScenarioSpec(kind="schedule_failure", n_trials=16, seed=5,
                    params={"n_senders": 3})


class TestRunnerExecution:
    def test_registry_exposes_builtins(self):
        names = available_scenarios()
        for expected in ("pair", "capture", "three_senders_stream",
                         "zigzag_ber", "schedule_failure", "testbed_pair"):
            assert expected in names

    def test_identical_across_worker_counts(self):
        """1 vs 4 processes, same seed -> bit-identical per-trial stats."""
        inline = MonteCarloRunner(n_workers=1).run(SPEC)
        fanned = MonteCarloRunner(n_workers=4).run(SPEC)
        assert [t.metrics for t in inline.trials] \
            == [t.metrics for t in fanned.trials]
        assert inline.mean("failed") == fanned.mean("failed")

    def test_identical_across_batch_sizes(self):
        one = MonteCarloRunner(n_workers=2, batch_size=1).run(SPEC)
        big = MonteCarloRunner(n_workers=2, batch_size=16).run(SPEC)
        assert [t.metrics for t in one.trials] \
            == [t.metrics for t in big.trials]

    @pytest.mark.skipif(
        "spawn" not in multiprocessing.get_all_start_methods(),
        reason="spawn start method unavailable")
    def test_spawn_safe(self):
        """Seeding and spec transport survive the spawn start method."""
        spawned = MonteCarloRunner(n_workers=2, start_method="spawn").run(
            SPEC, n_trials=4)
        inline = MonteCarloRunner(n_workers=1).run(SPEC, n_trials=4)
        assert [t.metrics for t in spawned.trials] \
            == [t.metrics for t in inline.trials]

    def test_map_values_and_trials(self):
        runner = MonteCarloRunner()
        doubled = runner.map(_double, values=[1, 2, 3])
        assert doubled == [2, 4, 6]
        draws = runner.map(_draw, 3, seed=1)
        assert draws == runner.map(_draw, 3, seed=1)
        assert len(set(draws)) == 3
        with pytest.raises(ConfigurationError):
            runner.map(_draw)

    def test_map_parallel_matches_inline(self):
        inline = MonteCarloRunner(n_workers=1).map(_draw, 6, seed=2)
        fanned = MonteCarloRunner(n_workers=3).map(_draw, 6, seed=2)
        assert inline == fanned

    def test_sweep_common_seed(self):
        runner = MonteCarloRunner()
        sweep = runner.sweep(SPEC, "params.n_senders", [2, 3])
        assert sweep.values() == [2, 3]
        values, means, los, his = sweep.curve("failed")
        assert len(means) == 2
        assert np.all(los <= means) and np.all(means <= his)
        # Same root seed at every point (common random numbers).
        assert all(result.spec.seed == SPEC.seed
                   for _, result in sweep.points)

    def test_run_override_trials(self):
        result = MonteCarloRunner().run(SPEC, n_trials=2)
        assert len(result.trials) == 2

    def test_unsupported_design_rejected(self):
        """A scenario that would silently ignore the design must refuse
        it instead of mislabeling the results."""
        spec = ScenarioSpec(kind="three_senders_stream", design="802.11",
                            n_trials=1)
        with pytest.raises(ConfigurationError, match="does not support"):
            MonteCarloRunner().run(spec)
        # Design-independent scenarios accept any design (it is ignored).
        MonteCarloRunner().run(
            ScenarioSpec(kind="schedule_failure", design="802.11",
                         n_trials=2, params={"n_senders": 2}))

    def test_pair_params_snr_overrides_senders(self):
        """`--param snr_db=...` must take effect even when the spec
        declares named senders (the documented sweep form)."""
        from repro.runner.scenarios import _pair_snrs
        spec = ScenarioSpec(kind="pair",
                            senders=(SenderSpec("a", 12.0),
                                     SenderSpec("b", 9.0)))
        assert _pair_snrs(spec) == (12.0, 9.0)
        swept = spec.with_override("snr_db", 6.0)
        assert _pair_snrs(swept) == (6.0, 6.0)

    def test_worker_validation(self):
        with pytest.raises(ConfigurationError):
            MonteCarloRunner(n_workers=-1)
        with pytest.raises(ConfigurationError):
            MonteCarloRunner(batch_size=0)
        auto = MonteCarloRunner(n_workers=0)
        assert auto.n_workers == (os.cpu_count() or 1)


class TestPortRegression:
    def test_capture_benchmark_matches_hand_rolled_loop(self):
        """The ported Fig 5-4 path produces exactly what the pre-port
        trial loop produces when fed the same derived seeds."""
        spec = ScenarioSpec(kind="capture", n_trials=3, seed=0,
                            n_packets=3,
                            params={"sinr_db": 8.0, "snr_b_db": 9.0})
        through_runner = MonteCarloRunner(n_workers=2).run(spec)
        from repro.runner.scenarios import _experiment_config
        config = _experiment_config(spec)
        hand_rolled = [
            run_capture_sweep_point(8.0, Design.ZIGZAG, snr_b_db=9.0,
                                    config=config, seed=seed)
            for seed in trial_seeds(spec.seed, spec.n_trials)
        ]
        for trial, expected in zip(through_runner.trials, hand_rolled):
            assert trial.metrics == pytest.approx(expected)

    @pytest.mark.skipif((os.cpu_count() or 1) < 2,
                        reason="needs >1 CPU to measure a speedup")
    def test_parallel_is_faster(self):
        # Enough trials that the work is several times the pool's
        # start-up; each mode's best of three drops host-load spikes.
        spec = ScenarioSpec(kind="pair", n_trials=32, seed=0,
                            n_packets=4,
                            senders=(SenderSpec("A", 12.0),
                                     SenderSpec("B", 9.0)))

        def best_of_three(n_workers: int) -> float:
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                MonteCarloRunner(n_workers=n_workers).run(spec)
                times.append(time.perf_counter() - t0)
            return min(times)
        serial = best_of_three(1)
        parallel = best_of_three(4)
        assert parallel < serial


def _double(ctx, value):
    return value * 2


def _draw(ctx):
    return float(ctx.rng.uniform())
