"""Greedy chunk scheduler tests (§4.2.3 pairs, §4.5 N senders)."""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, ScheduleError
from repro.zigzag.schedule import (
    DecodeStep,
    Placement,
    greedy_schedule,
    schedule_is_complete,
)


def pair_placements(d1, d2, n=100):
    """The canonical two-collision pattern: A at 0 in both, B at d1/d2."""
    return [
        Placement("A", 0, 0.0, n), Placement("B", 0, d1, n),
        Placement("A", 1, 0.0, n), Placement("B", 1, d2, n),
    ]


class TestCanonicalPair:
    def test_complete_schedule(self):
        placements = pair_placements(80.0, 24.0)
        steps = greedy_schedule(placements)
        assert schedule_is_complete(placements, steps)

    def test_bootstrap_chunk_from_larger_offset(self):
        steps = greedy_schedule(pair_placements(80.0, 24.0))
        first = steps[0]
        assert first.packet == "A"
        assert first.collision == 0  # the collision with the larger offset
        assert first.i0 == 0

    def test_equal_offsets_fail(self):
        with pytest.raises(ScheduleError):
            greedy_schedule(pair_placements(40.0, 40.0))

    def test_flipped_order_pattern(self):
        """Fig 4-1b: the packets swap order between collisions."""
        placements = [
            Placement("A", 0, 0.0, 100), Placement("B", 0, 60.0, 100),
            Placement("B", 1, 0.0, 100), Placement("A", 1, 60.0, 100),
        ]
        steps = greedy_schedule(placements)
        assert schedule_is_complete(placements, steps)

    def test_different_sizes_pattern(self):
        """Fig 4-1c: colliding packets of different lengths."""
        placements = [
            Placement("A", 0, 0.0, 120), Placement("B", 0, 50.0, 60),
            Placement("A", 1, 0.0, 120), Placement("B", 1, 150.0, 60),
        ]
        steps = greedy_schedule(placements)
        assert schedule_is_complete(placements, steps)

    def test_collision_free_retransmission(self):
        """Fig 4-1f: second 'collision' holds only Bob — one equation is
        clean and everything unravels."""
        placements = [
            Placement("A", 0, 0.0, 100), Placement("B", 0, 30.0, 100),
            Placement("B", 1, 0.0, 100),
        ]
        steps = greedy_schedule(placements)
        assert schedule_is_complete(placements, steps)

    def test_margin_shrinks_chunks(self):
        no_margin = greedy_schedule(pair_placements(80.0, 24.0),
                                    margin_symbols=0.0)
        margin = greedy_schedule(pair_placements(80.0, 24.0),
                                 margin_symbols=2.0)
        assert margin[0].i1 <= no_margin[0].i1


class TestThreeSenders:
    def test_three_collisions_decodable(self):
        placements = []
        offsets = [(0.0, 40.0, 90.0), (30.0, 0.0, 70.0), (50.0, 20.0, 0.0)]
        for c, offs in enumerate(offsets):
            for name, off in zip("ABC", offs):
                placements.append(Placement(name, c, off, 80))
        steps = greedy_schedule(placements)
        assert schedule_is_complete(placements, steps)

    def test_identical_collisions_fail(self):
        placements = []
        for c in range(3):
            for name, off in zip("ABC", (0.0, 30.0, 60.0)):
                placements.append(Placement(name, c, off, 80))
        with pytest.raises(ScheduleError):
            greedy_schedule(placements)


class TestValidation:
    def test_inconsistent_lengths_rejected(self):
        placements = [Placement("A", 0, 0.0, 50),
                      Placement("A", 1, 0.0, 60)]
        with pytest.raises(ConfigurationError):
            greedy_schedule(placements)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            greedy_schedule([])

    def test_step_validation(self):
        with pytest.raises(ConfigurationError):
            DecodeStep("A", 0, 5, 5)

    def test_placement_validation(self):
        with pytest.raises(ConfigurationError):
            Placement("A", 0, 0.0, 0)


class TestCompletenessChecker:
    def test_detects_gap(self):
        placements = pair_placements(80.0, 24.0)
        steps = greedy_schedule(placements)
        assert not schedule_is_complete(placements, steps[:-1])

    def test_detects_out_of_order(self):
        placements = pair_placements(80.0, 24.0)
        steps = greedy_schedule(placements)
        assert not schedule_is_complete(placements, steps[::-1])


class TestProperties:
    @given(d1=st.integers(1, 50), d2=st.integers(1, 50),
           n=st.integers(10, 120))
    @settings(max_examples=60, deadline=None)
    def test_pair_schedules_iff_offsets_differ(self, d1, d2, n):
        placements = pair_placements(2.0 * d1, 2.0 * d2, n=n)
        if d1 == d2 and d1 < n:
            # Identical offsets with genuine overlap are undecodable;
            # without overlap (d >= n) both packets are clean anyway.
            with pytest.raises(ScheduleError):
                greedy_schedule(placements)
        else:
            steps = greedy_schedule(placements)
            assert schedule_is_complete(placements, steps)

    @given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40),
                              st.integers(0, 40)),
                    min_size=3, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_assertion_4_5_1(self, slot_rounds):
        """If the pairwise-distinct condition holds over three distinct
        collisions, the greedy algorithm must succeed for three packets
        (Assertion 4.5.1).

        The paper's proof implicitly assumes non-degenerate geometry: when
        offsets align symbols of two packets to the *same sample*, those
        symbols merge into one unknown and back-substitution can dead-lock
        even though the stated condition holds (these ties are part of
        Fig 4-7's measured failure probability). Real offsets carry
        fractional timing, which we model with an off-grid slot size.
        That slot size (2.7 samples, sps 2) is off-grid for every slot
        difference but multiples of 20: 2.7 * 20 = 54 samples is exactly
        27 symbols, the same-sample tie, so those rounds are skipped.
        """
        if any(len(set(slots)) < 3 for slots in slot_rounds):
            return
        if any((slots[j] - slots[i]) % 20 == 0 for slots in slot_rounds
               for i, j in combinations(range(3), 2)):
            return
        # Three packets need three distinct collisions: a round that
        # repeats another's arrival pattern adds no equation, so the
        # overlap of all three packets stays two equations for three
        # unknowns. The receiver's k-way matcher (ZigZagReceiver.
        # _try_multiway) refuses such a repeated collision for the same
        # reason.
        patterns = {tuple(slot - min(slots) for slot in slots)
                    for slots in slot_rounds}
        if len(patterns) < len(slot_rounds):
            return
        # The pairwise-distinct condition: every packet pair collides in
        # every round, so it needs two rounds with different offsets.
        for i, j in combinations(range(3), 2):
            if len({slots[j] - slots[i] for slots in slot_rounds}) == 1:
                return
        placements = []
        for c, slots in enumerate(slot_rounds):
            base = min(slots)
            for name, slot in zip("ABC", slots):
                placements.append(
                    Placement(name, c, 2.7 * (slot - base), 90))
        steps = greedy_schedule(placements)
        assert schedule_is_complete(placements, steps)

    @given(d1=st.integers(5, 60), d2=st.integers(5, 60))
    @settings(max_examples=30, deadline=None)
    def test_steps_are_contiguous_prefixes(self, d1, d2):
        if d1 == d2:
            return
        placements = pair_placements(2.0 * d1, 2.0 * d2)
        steps = greedy_schedule(placements)
        cursor = {"A": 0, "B": 0}
        for step in steps:
            assert step.i0 == cursor[step.packet]
            cursor[step.packet] = step.i1
