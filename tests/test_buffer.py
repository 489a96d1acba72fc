"""Collision buffer tests (§4.2.2 storage, §4.5 set matching)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.phy.correlation import CorrelationPeak
from repro.receiver.buffer import CollisionBuffer, CollisionRecord, gaps_close


def peak(position):
    return CorrelationPeak(position=position, value=1.0 + 0j, score=0.9)


class TestBuffer:
    def test_fifo_capacity(self):
        buffer = CollisionBuffer(capacity=2)
        for i in range(3):
            buffer.add(np.ones(4, complex), [peak(0), peak(10 + i)])
        assert len(buffer) == 2
        offsets = [r.offset for r in buffer]
        assert offsets == [11, 12]  # the oldest record was evicted

    def test_newest_first(self):
        buffer = CollisionBuffer(capacity=3)
        for i in range(3):
            buffer.add(np.ones(4, complex), [peak(0), peak(10 + i)],
                       meta={"i": i})
        order = [r.meta["i"] for r in buffer.newest_first()]
        assert order == [2, 1, 0]

    def test_remove_and_clear(self):
        buffer = CollisionBuffer()
        record = buffer.add(np.ones(4, complex), [peak(0), peak(5)])
        assert buffer.remove(record) is True
        assert len(buffer) == 0
        # A second remove is a no-op but must *report* the miss — callers
        # assert on it to surface double-remove logic errors.
        assert buffer.remove(record) is False
        buffer.add(np.ones(4, complex), [peak(0), peak(5)])
        buffer.clear()
        assert len(buffer) == 0

    def test_remove_scans_past_other_records(self):
        """Regression: removing a record stored *behind* others used to
        fail silently — the dataclass-generated __eq__ compared sample
        arrays and raised numpy's ambiguous-truth ValueError, which the
        old code swallowed. Records now compare by identity."""
        buffer = CollisionBuffer(capacity=4)
        buffer.add(np.ones(4, complex), [peak(0), peak(5)])
        target = buffer.add(2 * np.ones(4, complex), [peak(0), peak(7)])
        buffer.add(3 * np.ones(4, complex), [peak(0), peak(9)])
        assert buffer.remove(target) is True
        assert len(buffer) == 2
        assert all(r is not target for r in buffer)

    def test_prune(self):
        buffer = CollisionBuffer(capacity=4)
        for i in range(3):
            buffer.add(np.ones(4, complex), [peak(0), peak(5 + i)],
                       meta={"rx": i})
        dropped = buffer.prune(lambda r: r.meta["rx"] >= 2)
        assert dropped == 2
        assert [r.meta["rx"] for r in buffer] == [2]
        assert buffer.prune(lambda r: True) == 0

    def test_sequence_increments(self):
        buffer = CollisionBuffer()
        r1 = buffer.add(np.ones(4, complex), [peak(0)])
        r2 = buffer.add(np.ones(4, complex), [peak(0)])
        assert r2.sequence == r1.sequence + 1

    def test_capacity_validation(self):
        with pytest.raises(ConfigurationError):
            CollisionBuffer(capacity=0)


class TestRecord:
    def test_offset(self):
        record = CollisionRecord(np.ones(4, complex),
                                 [peak(7), peak(30)])
        assert record.offset == 23

    def test_offset_requires_two_peaks(self):
        record = CollisionRecord(np.ones(4, complex), [peak(7)])
        with pytest.raises(ConfigurationError):
            _ = record.offset

    def test_gaps_generalize_offset(self):
        record = CollisionRecord(np.ones(4, complex),
                                 [peak(7), peak(30), peak(100)])
        assert record.n_peaks == 3
        assert record.gaps == (23, 70)
        pair = CollisionRecord(np.ones(4, complex), [peak(7), peak(30)])
        assert pair.gaps == (pair.offset,)

    def test_gaps_close_is_the_degenerate_check(self):
        a = CollisionRecord(np.ones(4, complex),
                            [peak(0), peak(50), peak(120)])
        near = CollisionRecord(np.ones(4, complex),
                               [peak(10), peak(61), peak(131)])
        far = CollisionRecord(np.ones(4, complex),
                              [peak(0), peak(80), peak(120)])
        pair = CollisionRecord(np.ones(4, complex), [peak(0), peak(50)])
        assert gaps_close(a, near)          # same gap signature
        assert not gaps_close(a, far)       # one gap differs
        assert not gaps_close(a, pair)      # different packet counts


class TestSetMatcher:
    """The §4.5 collision-set matcher: cached link scores + components."""

    def test_link_score_cached_per_pair(self):
        buffer = CollisionBuffer(capacity=4)
        a = buffer.add(np.ones(8, complex), [peak(0), peak(3)])
        b = buffer.add(np.ones(8, complex), [peak(0), peak(5)])
        calls = []

        def scorer(x, y):
            calls.append((x.sequence, y.sequence))
            return 0.9

        assert buffer.link_score(a, b, scorer) == 0.9
        assert buffer.link_score(a, b, scorer) == 0.9
        assert buffer.link_score(b, a, scorer) == 0.9  # symmetric key
        assert len(calls) == 1

    def test_link_score_caches_unscoreable(self):
        buffer = CollisionBuffer(capacity=4)
        a = buffer.add(np.ones(8, complex), [peak(0), peak(3)])
        b = buffer.add(np.ones(8, complex), [peak(0), peak(5)])
        calls = []

        def scorer(x, y):
            calls.append(1)
            raise ConfigurationError("short alignment")

        assert buffer.link_score(a, b, scorer) is None
        assert buffer.link_score(a, b, scorer) is None
        assert len(calls) == 1

    def test_cache_dropped_with_record(self):
        """Link scores must not outlive either record — a long session
        would otherwise leak one entry per historical pair."""
        buffer = CollisionBuffer(capacity=2)
        a = buffer.add(np.ones(8, complex), [peak(0), peak(3)])
        b = buffer.add(np.ones(8, complex), [peak(0), peak(5)])
        buffer.link_score(a, b, lambda x, y: 0.5)
        assert buffer._links
        buffer.add(np.ones(8, complex), [peak(0), peak(7)])  # evicts a
        assert not buffer._links
        buffer.remove(b)
        assert not buffer._links

    def test_component_transitive_chain(self):
        """c3 links c2 directly and c1 only *through* c2: the component
        still assembles all of them (the union-find earning its keep)."""
        buffer = CollisionBuffer(capacity=4)
        c1 = buffer.add(np.ones(8, complex), [peak(0), peak(10), peak(40)])
        c2 = buffer.add(np.ones(8, complex), [peak(0), peak(20), peak(50)])
        c3 = buffer.add(np.ones(8, complex), [peak(0), peak(30), peak(60)])
        links = {frozenset((c1.sequence, c2.sequence)): 0.8,
                 frozenset((c2.sequence, c3.sequence)): 0.8,
                 frozenset((c1.sequence, c3.sequence)): 0.05}

        def scorer(a, b):
            return links[frozenset((a.sequence, b.sequence))]

        got = buffer.component([c3], scorer, threshold=0.25)
        assert got == [c2, c1]              # newest first, seed excluded

    def test_component_excludes_unlinked(self):
        buffer = CollisionBuffer(capacity=4)
        c1 = buffer.add(np.ones(8, complex), [peak(0), peak(10)])
        c2 = buffer.add(np.ones(8, complex), [peak(0), peak(20)])
        other = buffer.add(np.ones(8, complex), [peak(0), peak(30)])
        links = {frozenset((c1.sequence, c2.sequence)): 0.9}

        def scorer(a, b):
            return links.get(frozenset((a.sequence, b.sequence)), 0.0)

        assert buffer.component([c2], scorer, threshold=0.25) == [c1]
        assert buffer.component([other], scorer, threshold=0.25) == []

    def test_component_skips_degenerate_links(self):
        """Identical-gap records never link: the §4.5 degenerate pair is
        undecodable, so it must not glue components together."""
        buffer = CollisionBuffer(capacity=4)
        buffer.add(np.ones(8, complex), [peak(0), peak(10)])
        c2 = buffer.add(np.ones(8, complex), [peak(5), peak(15)])

        def scorer(a, b):  # would link everything if consulted
            return 1.0

        assert buffer.component([c2], scorer, threshold=0.25) == []
