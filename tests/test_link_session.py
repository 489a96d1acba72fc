"""LinkSession: the closed loop actually closing (§4.2.2, §4.4)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.link import LinkSession, SessionConfig, StreamClient, Topology


def hidden_pair_clients():
    return [StreamClient("A", 1, 12.0, 3e-3),
            StreamClient("B", 2, 12.0, -2e-3)]


def run_session(design, clients=None, seed=1, **overrides):
    defaults = dict(n_packets=3, payload_bits=200)
    defaults.update(overrides)
    session = LinkSession(SessionConfig(**defaults),
                          clients or hidden_pair_clients(),
                          design=design, rng=np.random.default_rng(seed))
    return session.run()


class TestClosedLoop:
    def test_hidden_pair_zigzag_resolves_via_matching(self):
        """Collide, store, retransmit, match, decode, ACK: the paper's
        core loop, driven end to end by the session itself."""
        report = run_session("zigzag")
        assert not report.timed_out
        assert report.receiver_stats.zigzag_matches > 0
        for name in ("A", "B"):
            stats = report.flows[name]
            assert stats.sent == 3
            assert stats.delivered == 3

    def test_zigzag_beats_80211_on_hidden_pair(self):
        """Same seed, same scenario, the two AP designs head to head."""
        zz = run_session("zigzag")
        std = run_session("802.11")
        assert zz.total_delivered > std.total_delivered
        assert zz.throughput() > std.throughput()

    def test_sensing_clients_never_collide(self):
        """With perfect carrier sensing the DCF serializes the medium:
        packets decode standalone and ZigZag never engages."""
        report = run_session("zigzag", topology=Topology.probabilistic(1.0))
        assert report.receiver_stats.zigzag_matches == 0
        assert report.total_delivered == 6
        assert all(s.loss_rate == 0.0 for s in report.flows.values())

    def test_three_clients_hidden_pair_dominated(self):
        clients = hidden_pair_clients() + [StreamClient("C", 3, 11.0, 1e-3)]
        report = run_session("zigzag", clients=clients,
                             topology=Topology.explicit((("A", "B"),)))
        assert not report.timed_out
        assert report.total_delivered >= 8   # out of 9
        assert report.receiver_stats.zigzag_matches > 0

    def test_memory_stays_bounded(self):
        """The acceptance bound: nothing ever materializes the stream."""
        session = LinkSession(SessionConfig(n_packets=5, payload_bits=200),
                              hidden_pair_clients(), design="zigzag",
                              rng=np.random.default_rng(1))
        report = session.run()
        resident = report.counters["max_resident_samples"]
        emitted = report.counters["samples_emitted"]
        assert emitted > 10_000
        assert resident < 0.3 * emitted
        # Per-packet bookkeeping is pruned at resolution, so session
        # state does not grow with session length either.
        assert session.truth == {}
        assert session.decode_ber == {}
        assert session.tx_log == {}
        assert session.acked == set()

    def test_low_offered_load_stretches_the_session(self):
        """Poisson arrivals at low load leave the medium idle between
        packets, so the same packet count takes more air."""
        saturated = run_session("zigzag", topology=Topology.probabilistic(1.0))
        trickle = run_session(
            "zigzag", topology=Topology.probabilistic(1.0),
            clients=[StreamClient("A", 1, 12.0, 3e-3, offered_load=0.05),
                     StreamClient("B", 2, 12.0, -2e-3, offered_load=0.05)])
        assert trickle.samples_elapsed > 1.5 * saturated.samples_elapsed
        assert trickle.total_delivered == saturated.total_delivered

    def test_deterministic_given_seed(self):
        a = run_session("zigzag", seed=5)
        b = run_session("zigzag", seed=5)
        assert a.samples_elapsed == b.samples_elapsed
        assert a.counters == b.counters
        assert {n: s.delivered for n, s in a.flows.items()} \
            == {n: s.delivered for n, s in b.flows.items()}


class TestHiddenCliques:
    """n mutually-hidden clients: the §4.5 k-way regime, online."""

    def clique_clients(self):
        return [StreamClient("A", 1, 13.0, 3e-3),
                StreamClient("B", 2, 13.0, -2e-3),
                StreamClient("C", 3, 13.0, 1e-3)]

    def test_collision_packets_derived_from_topology(self):
        def k(topology, **kw):
            return SessionConfig(topology=topology,
                                 **kw).collision_packets()

        assert SessionConfig().collision_packets() == 2
        assert k(Topology.explicit((("A", "B"),))) == 2
        assert k(Topology.explicit(None, (("A", "B", "C"),))) == 3
        # A triangle declared pairwise is still a 3-clique.
        assert k(Topology.explicit((("A", "B"), ("B", "C"),
                                    ("A", "C")))) == 3
        # Explicit override wins.
        assert k(Topology.explicit(None, (("A", "B", "C", "D"),)),
                 max_collision_packets=2) == 2

    def test_three_way_clique_session_resolves_multiway(self):
        """The closed loop resolves k-way collision sets end to end:
        three mutually-hidden senders, every collision carrying all
        three packets, decoded through the buffer's match graph."""
        report = run_session("zigzag", clients=self.clique_clients(),
                             seed=2,
                             topology=Topology.explicit(
                                 None, (("A", "B", "C"),)))
        rx = report.receiver_stats
        assert rx.multiway_matches > 0
        assert rx.packets_multiway >= 3
        assert report.total_delivered >= 6  # most of the 9 packets land
        assert not report.timed_out

    def test_short_clique_rejected(self):
        with pytest.raises(ConfigurationError):
            SessionConfig(topology=Topology.explicit(
                None, (("A",),))).collision_packets()

    def test_unknown_clique_name_rejected(self):
        with pytest.raises(ConfigurationError):
            LinkSession(SessionConfig(topology=Topology.explicit(
                None, (("A", "B", "Z"),))), self.clique_clients())


class TestAckPlanning:
    """Lemma 4.4.1 generalized to k resolved packets."""

    class _Result:
        def __init__(self, src, seq):
            from repro.phy.frame import FrameHeader
            self.header = FrameHeader(src=src, dst=0, seq=seq,
                                      retry=False, modulation="bpsk",
                                      payload_bits=64)

    def _session(self):
        return LinkSession(SessionConfig(n_packets=1, payload_bits=200),
                           [StreamClient("A", 1, 12.0),
                            StreamClient("B", 2, 12.0),
                            StreamClient("C", 3, 12.0)],
                           rng=np.random.default_rng(0))

    def test_all_ackable_with_long_tails(self):
        session = self._session()
        need = session.sifs + session.ack_air
        # Staggered finishes: each earlier packet leaves the last one a
        # tail long enough for its serialized SIFS+ACK slot.
        session.tx_log = {
            (1, 0): (0, 1000),
            (2, 0): (500, 1000 + 3 * need),
            (3, 0): (900, 1000 + 9 * need),
        }
        results = [self._Result(src, 0) for src in (1, 2, 3)]
        acked = session._plan_acks(results)
        assert sorted(acked) == [(1, 0), (2, 0), (3, 0)]
        assert session.counters["acks_infeasible"] == 0

    def test_short_tail_drops_earliest_ack(self):
        session = self._session()
        # All three end nearly together: earlier finishers have no tail
        # to be ACKed in; only the last-finishing packet is ACKable.
        session.tx_log = {
            (1, 0): (0, 1000),
            (2, 0): (10, 1002),
            (3, 0): (20, 1004),
        }
        results = [self._Result(src, 0) for src in (1, 2, 3)]
        acked = session._plan_acks(results)
        assert acked == [(3, 0)]
        assert session.counters["acks_infeasible"] == 2

    def test_pair_behaviour_unchanged(self):
        session = self._session()
        need = session.sifs + session.ack_air
        session.tx_log = {(1, 0): (0, 1000),
                          (2, 0): (800, 1100 + 2 * need)}
        results = [self._Result(src, 0) for src in (1, 2)]
        assert sorted(session._plan_acks(results)) == [(1, 0), (2, 0)]
        session.tx_log = {(1, 0): (0, 1000), (2, 0): (10, 1002)}
        assert session._plan_acks(results) == [(2, 0)]


class TestBugfixRegressions:
    """Pinned fixes: snapshot sensing, cap accounting, end-of-session
    ACK delivery, and the duplicate-decode counter."""

    def _sensing_session(self):
        return LinkSession(
            SessionConfig(n_packets=1, payload_bits=200,
                          topology=Topology.probabilistic(1.0)),
            [StreamClient("A", 1, 12.0),
             StreamClient("B", 2, 12.0),
             StreamClient("C", 3, 12.0)],
            rng=np.random.default_rng(0))

    def test_sense_snapshot_excludes_departed_tx(self):
        """A transmission occupies [start, tx_end): at the boundary
        where it ends it is no longer on the air, so a contender that
        senses it may transmit on exactly that boundary."""
        from repro.link import RadioState
        from repro.link.events import EventEngine
        s = self._sensing_session()
        engine = EventEngine(s)
        a, b, c = s.clients
        engine.active_tx[b.index] = (0, 1000)
        assert engine._busy_until(a) == engine._busy_until(c) == 1000
        a.state = RadioState.CONTEND
        a.backoff = 0
        engine._schedule_tx(a, 500)
        assert a.pending_tx_time == 1000
        # One sample more of b's waveform and boundary 1000 is busy.
        engine.active_tx[b.index] = (0, 1001)
        engine._schedule_tx(a, 500)
        assert a.pending_tx_time == 1020

    def test_sense_snapshot_is_step_order_independent(self):
        """Two sensing clients whose backoff expires on the same
        boundary both transmit: the first one's TX start must not
        freeze the second, which decided on the same boundary."""
        from repro.link import RadioState
        from repro.link.events import EventEngine
        s = self._sensing_session()
        a, b, c = s.clients
        for st in (a, c):
            st._begin_packet(0)
            st.backoff = 2
        b.state = RadioState.DONE
        engine = EventEngine(s)
        engine.start()
        for st in (a, c):
            engine._schedule_tx(st, 0)
        assert a.pending_tx_time == c.pending_tx_time == 60
        engine.step_until(61)
        assert a.state == c.state == RadioState.TX
        assert s.counters["transmissions"] == 2

    def test_cap_accounts_for_waiting_clients(self):
        """A client idling between Poisson arrivals at the sample cap
        was invisible to the old accounting: it was neither unresolved
        nor had its unoffered packets charged anywhere."""
        report = run_session(
            "zigzag", n_packets=3,
            topology=Topology.probabilistic(1.0), max_samples=20_000,
            clients=[StreamClient("A", 1, 12.0, 3e-3,
                                  offered_load=0.001)])
        assert report.timed_out
        assert report.counters["unresolved_at_cap"] == 1
        assert report.counters["packets_unoffered_at_cap"] == 2
        assert report.flows["A"].sent == 1
        assert report.flows["A"].delivered == 1

    def test_finalize_delivers_queued_acks(self):
        """An ACK still queued when the session is cut off (planned by
        the flushed final burst, or pending past the cap) reaches its
        sender instead of evaporating."""
        import heapq
        import time
        s = self._sensing_session()
        st = s.clients[0]
        st._begin_packet(0)
        st._transmit(20)
        s.decode_ber[st.key] = 0.0            # the AP holds the packet
        heapq.heappush(s._ack_queue, (10 ** 9, *st.key))
        report = s._finalize(st.tx_end, True, time.perf_counter())
        assert report.flows["A"].delivered == 1
        # A resolved on the late ACK; only the two never-started
        # clients are charged to the cap.
        assert report.counters["unresolved_at_cap"] == 2
        assert report.counters["acks_dropped"] == 0

    def test_finalize_drops_stale_acks(self):
        import heapq
        import time
        s = self._sensing_session()
        heapq.heappush(s._ack_queue, (500, 9, 9))   # no such packet
        report = s._finalize(1000, False, time.perf_counter())
        assert report.counters["acks_dropped"] == 1

    def test_duplicate_decode_counter(self):
        """Re-decoding a packet the AP already holds counts as a
        duplicate whether or not its ACK ever landed — pre-fix the
        counter also required the key to be in the acked set, missing
        every §4.4 infeasible-ACK retransmission."""
        from types import SimpleNamespace

        from repro.link import Burst
        s = self._sensing_session()
        st = s.clients[0]
        st._begin_packet(0)
        st._transmit(20)
        result = SimpleNamespace(
            header=SimpleNamespace(src=1, seq=0),
            ber_against=lambda truth: 0.0)
        s.ap.receive = lambda samples: [result]
        burst = Burst(samples=np.zeros(8, dtype=complex), start=0)
        s._process_burst(burst, 100)
        assert s.counters["duplicate_decodes"] == 0
        assert st.key not in s.acked            # ACK not delivered yet
        s._process_burst(burst, 200)
        assert s.counters["duplicate_decodes"] == 1


class TestValidation:
    def test_duplicate_src_rejected(self):
        with pytest.raises(ConfigurationError):
            LinkSession(SessionConfig(),
                        [StreamClient("A", 1, 12.0),
                         StreamClient("B", 1, 12.0)])

    def test_unknown_hidden_pair_name_rejected(self):
        with pytest.raises(ConfigurationError):
            LinkSession(SessionConfig(
                topology=Topology.explicit((("A", "Z"),))),
                hidden_pair_clients())

    def test_offered_load_range(self):
        with pytest.raises(ConfigurationError):
            StreamClient("A", 1, 12.0, offered_load=1.5)

    def test_needs_clients(self):
        with pytest.raises(ConfigurationError):
            LinkSession(SessionConfig(), [])
