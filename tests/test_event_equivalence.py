"""Event-driven vs slot-clocked session cores: one loop, two clocks.

The two engines share every domain rule (client state machine, snapshot
carrier sense, ACK planning, AP receive chain) but consume the session
RNG in different orders — the event core never draws idle noise — so
identically-seeded twins agree *statistically*, not sample-for-sample.
These tests pin how tight that agreement actually is: scenario classes
where outcomes are deterministic at the working SNR must match exactly,
Monte-Carlo-dominated classes must match in aggregate, and the event
core's lazy-air bookkeeping must reconcile with the air it skipped.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.link import LinkSession, SessionConfig, StreamClient, Topology
from repro.link.events import PRIO_ACK, PRIO_AIR, PRIO_CLIENT, EventQueue

ENGINES = ("event", "slot")


def pair_clients(load=None, snr=12.0):
    return [StreamClient("A", 1, snr, 3e-3, offered_load=load),
            StreamClient("B", 2, snr, -2e-3, offered_load=load)]


def run_one(engine, seed, clients=None, design="zigzag", **overrides):
    defaults = dict(n_packets=3, payload_bits=200)
    defaults.update(overrides)
    session = LinkSession(SessionConfig(engine=engine, **defaults),
                          clients or pair_clients(), design=design,
                          rng=np.random.default_rng(seed))
    return session.run()


def twins(seed, **kw):
    """Identically-seeded (event, slot) reports."""
    clients = kw.pop("clients_fn", pair_clients)
    return tuple(run_one(engine, seed, clients=clients(), **kw)
                 for engine in ENGINES)


class TestPairEquivalence:
    """Hidden-pair ZigZag sessions: the paper's core loop on both clocks."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6])
    def test_delivery_and_matching_agree(self, seed):
        event, slot = twins(seed)
        assert event.total_delivered == slot.total_delivered
        assert not event.timed_out and not slot.timed_out
        assert event.receiver_stats.zigzag_matches > 0
        assert slot.receiver_stats.zigzag_matches > 0
        # Same MAC arithmetic: session lengths agree to within the
        # decode-timing jitter of different channel realizations.
        assert 0.5 < event.samples_elapsed / slot.samples_elapsed < 2.0

    def test_sensing_pair_serializes_on_both_clocks(self):
        for seed in (1, 2, 3):
            event, slot = twins(seed, topology=Topology.probabilistic(1.0))
            for report in (event, slot):
                assert report.total_delivered == 6
                assert report.receiver_stats.zigzag_matches == 0
                assert report.counters["packets_dropped"] == 0

    def test_80211_design_agrees_in_aggregate(self):
        """The standard AP drops most hidden-pair collisions on both
        clocks; the comparison is Monte-Carlo so only the pooled total
        is pinned (individual seeds legitimately differ)."""
        pooled = {"event": 0, "slot": 0}
        for seed in range(1, 9):
            for engine in ENGINES:
                pooled[engine] += run_one(
                    engine, seed, design="802.11",
                    n_packets=2).total_delivered
        assert abs(pooled["event"] - pooled["slot"]) <= 8
        # ZigZag's advantage (Fig 6) survives the engine swap.
        assert pooled["event"] < 16 and pooled["slot"] < 16


class TestCliqueEquivalence:
    """3-way mutually-hidden sessions are livelock-prone and bimodal;
    agreement is pinned on pooled statistics."""

    @staticmethod
    def clique():
        return [StreamClient("A", 1, 13.0, 3e-3),
                StreamClient("B", 2, 13.0, -2e-3),
                StreamClient("C", 3, 13.0, 1e-3)]

    def test_pooled_delivery_and_multiway(self):
        pooled = {"event": 0, "slot": 0}
        multiway = {"event": 0, "slot": 0}
        for seed in range(6):
            for engine in ENGINES:
                report = run_one(engine, seed, clients=self.clique(),
                                 topology=Topology.explicit(
                                     None, (("A", "B", "C"),)))
                pooled[engine] += report.total_delivered
                multiway[engine] += report.receiver_stats.multiway_matches
        # 54 packets offered per engine; both clocks resolve most and
        # both exercise the k-way path.
        assert pooled["event"] >= 30 and pooled["slot"] >= 30
        assert abs(pooled["event"] - pooled["slot"]) <= 12
        assert multiway["event"] > 0 and multiway["slot"] > 0


class TestLazyAir:
    """The event core's reason to exist: idle air is skipped, not paid."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_low_load_sessions_agree_and_skip(self, seed):
        event, slot = twins(seed, clients_fn=lambda: pair_clients(0.02),
                            n_packets=2, topology=Topology.probabilistic(1.0))
        assert event.total_delivered == slot.total_delivered
        assert abs(event.samples_elapsed - slot.samples_elapsed) \
            <= 0.05 * slot.samples_elapsed
        # The slot clock synthesizes everything; the event clock skips
        # the idle majority and still lands on the same session. Its
        # air cursor (emitted + skipped) never runs past MAC time —
        # trailing idle the session ended inside is simply never
        # materialized.
        assert slot.counters["samples_skipped"] == 0
        assert event.counters["samples_skipped"] \
            > event.counters["samples_emitted"]
        assert event.counters["samples_skipped"] \
            + event.counters["samples_emitted"] <= event.samples_elapsed
        assert event.counters["samples_emitted"] \
            < slot.counters["samples_emitted"]

    def test_saturated_sessions_never_skip_signal(self):
        """Skipping is only legal over silence: every emitted burst the
        slot core decodes, the event core must also have synthesized."""
        event, slot = twins(3)
        assert event.counters["bursts"] > 0
        assert event.total_delivered == slot.total_delivered


class TestRunnerCurves:
    def test_head_to_head_curves_match_across_engines(self):
        """The acceptance criterion: the runner's ZigZag-vs-802.11
        comparison (identically-seeded air, both APs) lands on the same
        means, within overlapping Monte-Carlo confidence intervals, on
        either session core."""
        from repro.runner import MonteCarloRunner, ScenarioSpec

        def sweep(engine):
            spec = ScenarioSpec(
                kind="ap_stream", n_trials=6, seed=11, payload_bits=200,
                n_packets=2, params={"hidden_pairs": "A:B",
                                     "chunk_samples": 512,
                                     "engine": engine})
            return MonteCarloRunner().run(spec)

        event, slot = sweep("event"), sweep("slot")
        for metric in ("delivered_zigzag", "delivered_80211"):
            m_e, lo_e, hi_e = event.ci(metric)
            m_s, lo_s, hi_s = slot.ci(metric)
            assert lo_e <= hi_s and lo_s <= hi_e, \
                f"{metric}: event CI [{lo_e:.2f},{hi_e:.2f}] disjoint " \
                f"from slot CI [{lo_s:.2f},{hi_s:.2f}]"
        # And the paper's qualitative result holds on both clocks.
        assert event.mean("delivered_zigzag") \
            > event.mean("delivered_80211")
        assert slot.mean("delivered_zigzag") \
            > slot.mean("delivered_80211")


class TestEngineContract:
    def test_event_engine_is_deterministic(self):
        a = run_one("event", seed=7)
        b = run_one("event", seed=7)
        assert a.samples_elapsed == b.samples_elapsed
        assert a.counters == b.counters
        assert {n: s.delivered for n, s in a.flows.items()} \
            == {n: s.delivered for n, s in b.flows.items()}

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            SessionConfig(engine="warp-drive")

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
