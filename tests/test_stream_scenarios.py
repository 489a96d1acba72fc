"""Runner wiring of the streaming scenarios (ap_stream)."""

import pathlib

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.runner import MonteCarloRunner, ScenarioSpec
from repro.runner.builders import _parse_hidden, build_stream_session
from repro.runner.cli import main
from repro.runner.scenarios import _fairness_ratio


def stream_spec(kind="ap_stream", **params):
    extras = {"hidden_pairs": "A:B"}
    extras.update(params)
    return ScenarioSpec(kind=kind, n_trials=1, seed=3, payload_bits=200,
                        n_packets=2, params=extras)


class TestApStreamScenario:
    def test_reports_both_designs_and_per_client_metrics(self):
        result = MonteCarloRunner().run(stream_spec())
        summary = result.summary()
        for key in ("throughput_zigzag", "throughput_80211",
                    "delivered_zigzag", "delivered_80211",
                    "loss_zigzag", "loss_80211", "zigzag_matches",
                    "throughput_A", "loss_A", "max_resident_samples"):
            assert key in summary, key
        # Hidden-pair-dominated air: the ZigZag AP must win on delivered
        # packets (the PR's acceptance criterion).
        assert result.mean("delivered_zigzag") \
            > result.mean("delivered_80211")
        flows = result.flows()
        assert "zigzag_A" in flows and "80211_A" in flows

    def test_engine_param_rejected(self, capsys):
        """The slot-clocked core is gone; a stale params.engine fails
        loudly, as every key the kind does not declare does."""
        with pytest.raises(ConfigurationError, match="'ap_stream' has no "
                           "\\[params\\] key 'engine'"):
            stream_spec().with_override("params.engine", "slot")
        scenario = (pathlib.Path(__file__).resolve().parents[1]
                    / "examples" / "scenarios" / "ap_stream.toml")
        code = main(["run", str(scenario), "--set", "params.engine=slot"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ") and "engine" in err

    def test_default_clients_from_params(self):
        """Without [[sender]] entries, params.n_clients symmetric clients
        named A, B, ... are created."""
        session = build_stream_session(
            stream_spec(n_clients=4), np.random.default_rng(0), "zigzag")
        assert [c.client.name for c in session.clients] \
            == ["A", "B", "C", "D"]

    def test_sender_entries_respected(self):
        spec = ScenarioSpec.from_dict({
            "scenario": {"kind": "ap_stream", "payload_bits": 200,
                         "n_packets": 2},
            "sender": [{"name": "A", "snr_db": 14.0},
                       {"name": "B", "snr_db": 9.0, "offered_load": 0.5}],
            "params": {"hidden_pairs": "A:B"},
        })
        session = build_stream_session(spec, np.random.default_rng(0),
                                       "zigzag")
        by_name = {c.client.name: c.client for c in session.clients}
        assert by_name["A"].snr_db == 14.0
        assert by_name["A"].offered_load is None
        assert by_name["B"].offered_load == 0.5

    def test_offered_load_scenario_runs(self):
        """params.offered_load is every client's default load; a
        [[sender]] load still wins, and without either clients stay
        saturated."""
        spec = stream_spec(offered_load=0.5)
        result = MonteCarloRunner().run(spec)
        assert "throughput_zigzag" in result.summary()
        session = build_stream_session(spec, np.random.default_rng(0),
                                       "zigzag")
        assert {c.client.offered_load for c in session.clients} == {0.5}
        mixed = ScenarioSpec.from_dict({
            "scenario": {"kind": "ap_stream"},
            "sender": [{"name": "A", "snr_db": 12.0},
                       {"name": "B", "snr_db": 12.0,
                        "offered_load": 0.2}],
            "params": {"offered_load": 0.5}})
        loads = {c.client.name: c.client.offered_load
                 for c in build_stream_session(
                     mixed, np.random.default_rng(0), "zigzag").clients}
        assert loads == {"A": 0.5, "B": 0.2}
        saturated = build_stream_session(
            stream_spec(), np.random.default_rng(0), "zigzag")
        assert {c.client.offered_load for c in saturated.clients} == {None}

    def test_spec_roundtrips_offered_load(self):
        spec = ScenarioSpec.from_dict({
            "scenario": {"kind": "ap_stream"},
            "sender": [{"name": "A", "snr_db": 12.0,
                        "offered_load": 0.4}],
        })
        again = ScenarioSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.senders[0].offered_load == 0.4


class TestSpecTopology:
    """A stream spec declares who senses whom one way: hidden lists or a
    shared sense probability."""

    def test_sense_probability_without_hidden_lists(self):
        spec = ScenarioSpec(kind="ap_stream", sense_probability=0.4,
                            params={"n_clients": 3})
        session = build_stream_session(spec, np.random.default_rng(0),
                                       "zigzag")
        assert session.topology.mode == "probabilistic"
        assert session.topology.sense_probability == 0.4

    @pytest.mark.parametrize("hidden", [{"hidden_pairs": "A:B"},
                                        {"hidden_cliques": "A:B:C"}])
    def test_hidden_lists_and_sense_probability_rejected(self, hidden):
        """Regression: the probability used to be silently dropped."""
        spec = ScenarioSpec(kind="ap_stream", sense_probability=0.9,
                            params=hidden)
        with pytest.raises(ConfigurationError, match="sense_probability"):
            build_stream_session(spec, np.random.default_rng(0), "zigzag")

    def test_cli_reports_both_topologies_as_a_spec_error(self, capsys):
        scenario = (pathlib.Path(__file__).resolve().parents[1]
                    / "examples" / "scenarios" / "ap_stream.toml")
        code = main(["run", str(scenario), "--trials", "1",
                     "--set", "sense_probability=0.9"])
        assert code == 2
        assert capsys.readouterr().err.startswith("repro: error: ")


class TestHiddenPairsParsing:
    def test_parse(self):
        assert _parse_hidden("A:B,B:C", 2) == (("A", "B"), ("B", "C"))

    @pytest.mark.parametrize("bad", ["AB", "A:", ":B", "A:B,",
                                     "A;B", "A:B:C"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ConfigurationError):
            _parse_hidden(bad, 2)


class TestFairnessRatio:
    def test_all_zero_is_perfectly_even(self):
        """Regression: an all-starved trial must not report 0.0 (which
        reads as 'more fair than equal shares')."""
        assert _fairness_ratio([0.0, 0.0, 0.0]) == 1.0

    def test_normal_ratio(self):
        assert _fairness_ratio([0.2, 0.1]) == pytest.approx(2.0)

    def test_one_starved_sender_is_unfair(self):
        assert _fairness_ratio([0.3, 0.0]) > 1e8
