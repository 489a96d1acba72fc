"""The event-driven session core: outcomes, lazy air, event ordering.

Every closed-loop session runs on the heap-ordered core of
:mod:`repro.link.events`. These tests pin what it must deliver on the
paper's scenario classes (hidden pairs resolved through ZigZag
matching, sensing pairs serialized, 3-way cliques through the k-way
path), that its lazy-air bookkeeping reconciles with the air it
skipped, and the ordering contract of its event queue. Exact outcomes
of fixed-seed sessions are pinned separately by
``tests/golden/closed_loop.json``.
"""

import numpy as np
import pytest

from repro.link import LinkSession, SessionConfig, StreamClient, Topology
from repro.link.events import PRIO_ACK, PRIO_AIR, PRIO_CLIENT, EventQueue


def pair_clients(load=None, snr=12.0):
    return [StreamClient("A", 1, snr, 3e-3, offered_load=load),
            StreamClient("B", 2, snr, -2e-3, offered_load=load)]


def run_one(seed, clients=None, design="zigzag", **overrides):
    defaults = dict(n_packets=3, payload_bits=200)
    defaults.update(overrides)
    session = LinkSession(SessionConfig(**defaults),
                          clients or pair_clients(), design=design,
                          rng=np.random.default_rng(seed))
    return session.run()


class TestPairSessions:
    """Hidden-pair ZigZag sessions: the paper's core loop."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6])
    def test_hidden_pair_resolves_through_matching(self, seed):
        report = run_one(seed)
        assert not report.timed_out
        assert report.receiver_stats.zigzag_matches > 0

    def test_sensing_pair_serializes(self):
        for seed in (1, 2, 3):
            report = run_one(seed, topology=Topology.probabilistic(1.0))
            assert report.total_delivered == 6
            assert report.receiver_stats.zigzag_matches == 0
            assert report.counters["packets_dropped"] == 0

    def test_80211_design_loses_the_hidden_pair(self):
        """The standard AP drops most hidden-pair collisions (Fig 6);
        the comparison is Monte-Carlo so only the pooled total is
        pinned."""
        pooled = sum(run_one(seed, design="802.11",
                             n_packets=2).total_delivered
                     for seed in range(1, 9))
        assert pooled < 16


class TestCliqueSessions:
    """3-way mutually-hidden sessions are livelock-prone and bimodal;
    delivery is pinned on pooled statistics."""

    @staticmethod
    def clique():
        return [StreamClient("A", 1, 13.0, 3e-3),
                StreamClient("B", 2, 13.0, -2e-3),
                StreamClient("C", 3, 13.0, 1e-3)]

    def test_pooled_delivery_and_multiway(self):
        pooled = multiway = 0
        for seed in range(6):
            report = run_one(seed, clients=self.clique(),
                             topology=Topology.explicit(
                                 None, (("A", "B", "C"),)))
            pooled += report.total_delivered
            multiway += report.receiver_stats.multiway_matches
        # 54 packets offered: most resolve, through the k-way path.
        assert pooled >= 30
        assert multiway > 0


class TestLazyAir:
    """The event core's reason to exist: idle air is skipped, not paid."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_low_load_sessions_skip_idle_air(self, seed):
        report = run_one(seed, clients=pair_clients(0.02), n_packets=2,
                         topology=Topology.probabilistic(1.0))
        # The idle majority is skipped, and the air cursor (emitted +
        # skipped) never runs past MAC time — trailing idle the session
        # ended inside is simply never materialized.
        assert report.counters["samples_skipped"] \
            > report.counters["samples_emitted"]
        assert report.counters["samples_skipped"] \
            + report.counters["samples_emitted"] <= report.samples_elapsed

    def test_saturated_sessions_synthesize_their_bursts(self):
        report = run_one(3)
        assert report.counters["bursts"] > 0


class TestRunnerCurves:
    def test_zigzag_beats_80211_through_the_runner(self):
        """The runner's ZigZag-vs-802.11 comparison (identically-seeded
        air, both APs) shows the paper's qualitative result."""
        from repro.runner import MonteCarloRunner, ScenarioSpec

        spec = ScenarioSpec(
            kind="ap_stream", n_trials=6, seed=11, payload_bits=200,
            n_packets=2, params={"hidden_pairs": "A:B"})
        result = MonteCarloRunner().run(spec)
        assert result.mean("delivered_zigzag") \
            > result.mean("delivered_80211")


class TestEngineContract:
    def test_event_engine_is_deterministic(self):
        a = run_one(seed=7)
        b = run_one(seed=7)
        assert a.samples_elapsed == b.samples_elapsed
        assert a.counters == b.counters
        assert {n: s.delivered for n, s in a.flows.items()} \
            == {n: s.delivered for n, s in b.flows.items()}

    def test_event_queue_orders_time_priority_tiebreak(self):
        q = EventQueue()
        q.push(200, PRIO_CLIENT, 0, "late")
        q.push(100, PRIO_CLIENT, 1, "client-b")
        q.push(100, PRIO_CLIENT, 0, "client-a")
        q.push(100, PRIO_ACK, 0, "ack")
        q.push(100, PRIO_AIR, 5, "air")
        kinds = [q.pop()[4] for _ in range(len(q))]
        # Same boundary: air before ACK before clients (in list order),
        # then strictly later events.
        assert kinds == ["air", "ack", "client-a", "client-b", "late"]

    def test_event_queue_is_fifo_within_equal_keys(self):
        q = EventQueue()
        for tag in ("first", "second", "third"):
            q.push(50, PRIO_CLIENT, 2, tag)
        assert [q.pop()[4] for _ in range(3)] \
            == ["first", "second", "third"]
