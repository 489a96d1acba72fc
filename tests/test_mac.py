"""MAC substrate tests: timing, backoff, ACK lemma, hidden scenarios."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.mac.ack import (
    AckPlanner,
    ack_offset_lower_bound,
    ack_offset_probability,
    plan_synchronous_acks,
)
from repro.mac.backoff import ExponentialBackoff, FixedWindowBackoff
from repro.mac.hidden import HiddenScenario
from repro.mac.timing import (
    SLOT_SAMPLES,
    TIMING_80211A,
    TIMING_80211G,
    Timing,
)


class TestTiming:
    def test_80211g_values_match_paper(self):
        t = TIMING_80211G
        assert t.slot_us == 20.0
        assert t.sifs_us == 10.0
        assert t.ack_us == 30.0

    def test_difs(self):
        assert TIMING_80211G.difs_us == 10.0 + 40.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Timing("bad", slot_us=0.0, sifs_us=1, ack_us=1, cw_min=1,
                   cw_max=2)
        with pytest.raises(ConfigurationError):
            Timing("bad", slot_us=1, sifs_us=1, ack_us=1, cw_min=8,
                   cw_max=4)

    def test_backoff_us(self):
        assert TIMING_80211A.backoff_us(3) == 27.0
        with pytest.raises(ConfigurationError):
            TIMING_80211A.backoff_us(-1)


class TestBackoff:
    def test_fixed_window_range(self, rng):
        picker = FixedWindowBackoff(cw=8)
        slots = [picker.pick(attempt, rng) for attempt in range(5)
                 for _ in range(200)]
        assert min(slots) >= 0 and max(slots) <= 8

    def test_exponential_doubles_and_caps(self):
        picker = ExponentialBackoff(cw_min=31, cw_max=1023)
        assert picker.window(0) == 31
        assert picker.window(1) == 63
        assert picker.window(2) == 127
        assert picker.window(10) == 1023

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FixedWindowBackoff(cw=0)
        with pytest.raises(ConfigurationError):
            ExponentialBackoff(cw_min=0)
        with pytest.raises(ConfigurationError):
            FixedWindowBackoff(cw=4).window(-1)


class TestAckLemma:
    def test_paper_bound_exact(self):
        """Lemma 4.4.1: the 802.11g bound evaluates to exactly 0.9375."""
        assert ack_offset_lower_bound() == pytest.approx(0.9375)

    def test_monte_carlo_near_bound(self):
        probability = ack_offset_probability(n_trials=200_000)
        # The two-sided MC event is slightly stricter than the one-sided
        # analytic bound; it must still be high.
        assert 0.85 <= probability <= 0.9375 + 0.01

    def test_probability_grows_with_cw(self):
        p_small = ack_offset_probability(cw=8, n_trials=50_000)
        p_large = ack_offset_probability(cw=64, n_trials=50_000)
        assert p_large > p_small

    def test_planner_feasibility(self):
        planner = AckPlanner()
        plan = planner.plan(offset_us=100.0, first_duration_us=1000.0,
                            second_duration_us=1000.0)
        assert plan.feasible
        assert plan.ack_first_at == pytest.approx(1010.0)
        tight = planner.plan(offset_us=10.0, first_duration_us=1000.0,
                             second_duration_us=1000.0)
        assert not tight.feasible

    def test_planner_padding_covers_gap(self):
        plan = AckPlanner().plan(offset_us=200.0,
                                 first_duration_us=1000.0,
                                 second_duration_us=1000.0)
        # padding fills from end of first ack to the second packet's end
        assert plan.padding_us == pytest.approx(
            1200.0 - (1000.0 + 10.0 + 30.0))

    def test_planner_validation(self):
        with pytest.raises(ConfigurationError):
            AckPlanner().plan(offset_us=-1.0, first_duration_us=10,
                              second_duration_us=10)


class TestSynchronousAckSet:
    """plan_synchronous_acks: Lemma 4.4.1 generalized to k packets."""

    SIFS, ACK = 10.0, 30.0

    def test_pair_matches_planner(self):
        """The k = 2 case agrees with AckPlanner.plan on both sides of
        the feasibility boundary (same rule, one source of truth)."""
        planner = AckPlanner()
        for offset_us in (5.0, 39.0, 40.0, 41.0, 200.0):
            plan = planner.plan(offset_us=offset_us,
                                first_duration_us=1000.0,
                                second_duration_us=1000.0)
            flags = plan_synchronous_acks(
                [1000.0], offset_us + 1000.0, self.SIFS, self.ACK)
            assert flags == [plan.feasible], offset_us

    def test_serialized_slots_consume_the_tail(self):
        # Two earlier packets whose ACK windows both fit, but only
        # because the second ACK is pushed past the first.
        flags = plan_synchronous_acks([0.0, 10.0], 100.0,
                                      self.SIFS, self.ACK)
        assert flags == [True, True]
        # The push matters: the third packet's own window ([30, 60])
        # fits the tail easily, but serialization behind the first two
        # ACKs runs it past the last packet's end.
        flags = plan_synchronous_acks([0.0, 10.0, 20.0], 95.0,
                                      self.SIFS, self.ACK)
        assert flags == [True, True, False]

    def test_completed_ack_frees_the_air(self):
        """A long-finished earlier ACK must not block a later one whose
        own window fits (regression: the slot count used to be charged
        against every later packet's tail)."""
        flags = plan_synchronous_acks([0.0, 300.0], 400.0,
                                      self.SIFS, self.ACK)
        assert flags == [True, True]


class TestHiddenScenario:
    def test_offsets_multiple_of_slot(self):
        scenario = HiddenScenario(n_senders=3)
        rounds = scenario.collision_offsets(np.random.default_rng(0), 4)
        assert len(rounds) == 4
        for offsets in rounds:
            assert min(offsets) == 0
            assert all(o % SLOT_SAMPLES == 0 for o in offsets)

    def test_needs_two_senders(self):
        with pytest.raises(ConfigurationError):
            HiddenScenario(n_senders=1)
