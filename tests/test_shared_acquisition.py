"""Per-capture work shared across the client table stays bit-identical.

The receive path acquires and detects every packet against each
associated client's coarse frequency offset (§4.2.1, §4.2.4). The
fractional-timing grid and the detection energy normalization do not
depend on the frequency, so one pass serves the whole candidate list,
and a collision record keeps what was computed on it across decode
attempts. These tests hold that sharing to exact equality with
independent per-frequency work, and pin the read-only storage that keeps
a record's memo valid.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ReceiverConfig, ZigZagReceiver, api
from repro.phy.preamble import PREAMBLE
from repro.phy.pulse import DELAY, SHAPER, MatchedSampler
from repro.phy.sync import Synchronizer
from repro.receiver.buffer import CollisionBuffer, CollisionRecord
from repro.zigzag.detect import CollisionDetector

from kernel_oracles import (
    detector_find_packets,
    synchronizer_acquire,
    synchronizer_detect,
)
from test_core_receiver import collision_capture, make_frames

# A small pool, so drawn candidate lists repeat and come unsorted.
FREQ_POOL = (3.9e-3, -4e-3, 0.0, 7.5e-4, -1.5e-3, 2e-3)


def fields(estimate) -> tuple:
    return dataclasses.astuple(estimate)


def capture(seed: int, n: int, starts, freq: float) -> np.ndarray:
    """Unit noise plus preamble waveforms whose symbol 0 sits at each of
    *starts*, clipped to the capture (edges included)."""
    rng = np.random.default_rng(seed)
    y = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
    wave = SHAPER.shape(PREAMBLE.symbols)
    wave = 3.0 * wave * np.exp(2j * np.pi * freq * np.arange(wave.size))
    for start in starts:
        index = start - DELAY + np.arange(wave.size)
        inside = (index >= 0) & (index < n)
        y[index[inside]] += wave[inside]
    return y


@st.composite
def acquisition_cases(draw):
    n = draw(st.integers(120, 360))
    delay = DELAY
    # Peaks within DELAY of either edge take the sampler's
    # zero-padding path.
    position = draw(st.one_of(st.integers(0, delay),
                              st.integers(n - 1 - delay, n - 1),
                              st.integers(0, n - 1)))
    freqs = draw(st.lists(st.sampled_from(FREQ_POOL), min_size=1,
                          max_size=6))
    return (draw(st.integers(0, 2**32 - 1)), n, position, freqs,
            draw(st.sampled_from(FREQ_POOL)))


class TestSharedGridAcquisition:
    @given(acquisition_cases())
    @settings(max_examples=60, deadline=None)
    def test_candidate_list_equals_independent_calls(self, case):
        seed, n, position, freqs, true_freq = case
        y = capture(seed, n, [position], true_freq)
        shared = Synchronizer().acquire(
            y, position, coarse_freq=freqs)
        assert len(shared) == len(freqs)
        for freq, estimate in zip(freqs, shared):
            alone = Synchronizer().acquire(
                y, position, coarse_freq=freq)
            assert fields(estimate) == fields(alone)

    @given(acquisition_cases())
    @settings(max_examples=40, deadline=None)
    def test_kept_outputs_across_calls_change_nothing(self, case):
        """A record's ``sampled`` dict, reused by later calls at the same
        and at another peak, yields exactly what fresh calls yield."""
        seed, n, position, freqs, true_freq = case
        y = capture(seed, n, [position], true_freq)
        other = (position + 7) % n
        sync = Synchronizer()
        kept: dict = {}
        first = sync.acquire(y, position, coarse_freq=freqs[:1],
                             sampled=kept)
        rest = sync.acquire(y, position, coarse_freq=freqs, sampled=kept)
        moved = sync.acquire(y, other, coarse_freq=freqs[-1], sampled=kept)
        fresh = Synchronizer()
        assert fields(first[0]) == fields(
            fresh.acquire(y, position, coarse_freq=freqs[0]))
        for freq, estimate in zip(freqs, rest):
            assert fields(estimate) == fields(
                fresh.acquire(y, position, coarse_freq=freq))
        assert fields(moved) == fields(
            fresh.acquire(y, other, coarse_freq=freqs[-1]))

    def test_scalar_returns_one_estimate_list_returns_list(self):
        y = capture(3, 300, [100], 1e-3)
        sync = Synchronizer()
        single = sync.acquire(y, 100, coarse_freq=1e-3)
        listed = sync.acquire(y, 100, coarse_freq=[1e-3])
        assert fields(listed[0]) == fields(single)
        assert sync.acquire(y, 100, coarse_freq=[]) == []


class CacheTwin:
    """A synchronizer whose calls run on its own kernel cache: calling
    the twin runs a function with the cache swapped into
    :data:`SHAPER` for that call only."""

    def __init__(self, cache: dict) -> None:
        self.sync = Synchronizer()
        self.cache = cache

    def __call__(self, fn, *args, **kwargs):
        saved, SHAPER._kernel_cache = SHAPER._kernel_cache, self.cache
        try:
            return fn(*args, **kwargs)
        finally:
            SHAPER._kernel_cache = saved


def twin_synchronizers(cache_entries: int = 0
                       ) -> tuple[CacheTwin, CacheTwin]:
    """Two synchronizers whose kernel caches hold the same
    *cache_entries* kernels in the same order."""
    old = CacheTwin({})
    rng = np.random.default_rng(cache_entries)
    for fraction in rng.uniform(-1.0, 1.0, cache_entries):
        old(SHAPER.kernel_at, float(fraction))
    return old, CacheTwin(dict(old.cache))


def assert_same_state(old: CacheTwin, new: CacheTwin,
                      old_sampled: dict, new_sampled: dict) -> None:
    """Same kernels cached in the same order, same outputs kept."""
    old_cache, new_cache = old.cache, new.cache
    assert list(old_cache) == list(new_cache)
    assert all(np.array_equal(old_cache[key], new_cache[key])
               for key in old_cache)
    assert list(old_sampled) == list(new_sampled)
    assert all(np.array_equal(old_sampled[start], new_sampled[start])
               for start in old_sampled)


@st.composite
def oracle_cases(draw):
    seed, n, position, _, true_freq = draw(acquisition_cases())
    # K = 0-16 candidates: repeats and any order from the pool, and
    # offsets no other candidate shares.
    freqs = draw(st.lists(
        st.one_of(st.sampled_from(FREQ_POOL), st.floats(-5e-3, 5e-3)),
        min_size=0, max_size=16))
    return seed, n, position, freqs, true_freq


class TestAcquireEqualsPerFrequencyLoop:
    """``acquire`` scores every candidate in one pass; the oracle is the
    per-frequency loop it replaced. Equal estimates, and the same
    kernel-cache and ``sampled`` side effects, in every case."""

    @given(oracle_cases())
    @settings(max_examples=80, deadline=None)
    def test_candidate_list_equals_oracle(self, case):
        seed, n, position, freqs, true_freq = case
        y = capture(seed, n, [position], true_freq)
        old, new = twin_synchronizers()
        old_sampled, new_sampled = {}, {}
        expected = old(synchronizer_acquire, old.sync, y, position,
                       coarse_freq=freqs, sampled=old_sampled)
        got = new(new.sync.acquire, y, position, coarse_freq=freqs,
                  sampled=new_sampled)
        assert got == expected
        assert_same_state(old, new, old_sampled, new_sampled)

    @given(oracle_cases())
    @settings(max_examples=40, deadline=None)
    def test_shared_sampled_memo_equals_oracle(self, case):
        """One ``sampled`` dict across calls at the same and at another
        peak, as a collision record keeps it."""
        seed, n, position, freqs, true_freq = case
        y = capture(seed, n, [position], true_freq)
        other = (position + 7) % n
        old, new = twin_synchronizers()
        old_sampled, new_sampled = {}, {}
        for at, candidates in ((position, freqs[:1]), (position, freqs),
                               (other, freqs[::-1])):
            expected = old(synchronizer_acquire, old.sync, y, at,
                           coarse_freq=candidates, sampled=old_sampled)
            got = new(new.sync.acquire, y, at, coarse_freq=candidates,
                      sampled=new_sampled)
            assert got == expected
        assert_same_state(old, new, old_sampled, new_sampled)

    @pytest.mark.parametrize("cache_entries", [4095, 4088, 4080])
    def test_kernel_cache_clear_mid_call_equals_oracle(self, cache_entries):
        """A cache at or near its 4096-kernel bound is cleared part way
        through the grid's or the refined starts' kernels."""
        y = capture(5, 300, [150], 1e-3)
        freqs = list(np.linspace(-4e-3, 4e-3, 16))
        old, new = twin_synchronizers(cache_entries)
        old_sampled, new_sampled = {}, {}
        for position in (150, 151):
            expected = old(synchronizer_acquire, old.sync, y, position,
                           coarse_freq=freqs, sampled=old_sampled)
            got = new(new.sync.acquire, y, position, coarse_freq=freqs,
                      sampled=new_sampled)
            assert got == expected
        assert_same_state(old, new, old_sampled, new_sampled)

    def test_near_tie_on_the_grid_equals_oracle(self):
        """A constant capture gives grid points one sample apart (-0.2
        and +0.8) the same fraction, so their scores tie to rounding at
        the top of the grid: the row is scored exactly, and np.argmax
        keeps the first."""
        y = np.full(300, 0.7 - 0.2j)
        position = 150
        reference = PREAMBLE.symbols
        sampler = Synchronizer()._sampler
        scores = [abs(complex(np.vdot(reference, sampler.sample(
            y, float(position + d), len(PREAMBLE)))))
            for d in np.arange(-0.8, 0.9, 0.2)]
        top = sorted(range(9), key=lambda g: -scores[g])[:2]
        assert sorted(top) == [3, 8]
        assert abs(scores[3] - scores[8]) <= 1e-12 * scores[3]
        freqs = [0.0, 1e-3, -2e-3, 0.0]
        old, new = twin_synchronizers()
        old_sampled, new_sampled = {}, {}
        expected = old(synchronizer_acquire, old.sync, y, position,
                       coarse_freq=freqs, sampled=old_sampled)
        assert new(new.sync.acquire, y, position, coarse_freq=freqs,
                   sampled=new_sampled) == expected
        assert_same_state(old, new, old_sampled, new_sampled)


class TestSampleMany:
    @given(st.integers(0, 2**32 - 1), st.integers(40, 200),
           st.lists(st.floats(-20.0, 220.0), max_size=12),
           st.integers(0, 40))
    @settings(max_examples=60, deadline=None)
    def test_rows_equal_one_sample_call_each(self, seed, n, starts, count):
        """Any number of bases, any order, repeats, and windows off
        either end of the capture; the kernel caches end up alike."""
        rng = np.random.default_rng(seed)
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        starts = starts + starts[:2]
        one, many = twin_synchronizers()
        expected = [one(MatchedSampler().sample, y, start, count)
                    for start in starts]
        got = many(MatchedSampler().sample_many, y, starts, count)
        assert got.shape == (len(starts), count)
        for row, want in zip(got, expected):
            assert np.array_equal(row, want)
        assert list(one.cache) == list(many.cache)


class TestSharedNormalizationDetection:
    @given(st.integers(0, 2**32 - 1), st.integers(200, 700),
           st.lists(st.integers(0, 700), min_size=0, max_size=3),
           st.sampled_from(FREQ_POOL),
           st.lists(st.sampled_from(FREQ_POOL), min_size=1, max_size=6),
           st.sampled_from([None, 1, 2]))
    @settings(max_examples=60, deadline=None)
    def test_find_packets_equals_per_frequency_merge(
            self, seed, n, starts, true_freq, freqs, max_peaks):
        y = capture(seed, n, [s % n for s in starts], true_freq)
        detector = CollisionDetector(beta=0.4)
        oracle = Synchronizer(threshold=0.4)
        assert detector.find_packets(y, freqs, max_peaks=max_peaks) == \
            detector_find_packets(oracle, y, freqs, max_peaks)
        per_freq = Synchronizer(threshold=0.4).detect(
            y, coarse_freq=freqs, max_peaks=max_peaks)
        assert per_freq == [synchronizer_detect(oracle, y, coarse_freq=f,
                                                max_peaks=max_peaks)
                            for f in freqs]

    def test_short_capture_still_rejected(self):
        from repro.errors import CollisionDetectError
        sync = Synchronizer()
        with pytest.raises(CollisionDetectError):
            sync.detect(np.zeros(10, complex), coarse_freq=[0.0, 1e-3])


class TestStoredRecordsAreReadOnly:
    def test_add_marks_samples_read_only(self):
        buffer = CollisionBuffer(2)
        record = buffer.add(np.ones(8, complex), [])
        assert not record.samples.flags.writeable
        with pytest.raises(ValueError):
            record.samples[0] = 0

    def test_store_keeps_the_record_and_its_memo(self):
        buffer = CollisionBuffer(2)
        record = CollisionRecord(samples=np.ones(8, complex), peaks=[],
                                 sequence=-1)
        record.estimates[(3, 0.0)] = "memo"
        assert buffer.store(record) is record
        assert record.sequence == 0
        assert record.estimates == {(3, 0.0): "memo"}
        assert list(buffer) == [record]
        assert not record.samples.flags.writeable

    def test_memo_survives_a_failed_zigzag_attempt(self, rng, monkeypatch):
        """A stored collision takes part in a ZigZag attempt that fails
        (the new collision holds other packets). The decoders work on
        copies, so the record's samples are untouched, and every
        memoized estimate equals a fresh acquisition."""
        freqs = {1: 3e-3, 2: -2e-3, 3: 1e-3, 4: -1e-3}
        frames1 = make_frames(rng, srcs=(1, 2))
        frames2 = make_frames(rng, srcs=(3, 4))
        n_symbols = frames1["s1"].n_symbols
        # A zero match threshold makes the unrelated pair "match", so a
        # ZigZag decode is attempted on the stored record and fails.
        monkeypatch.setattr(api, "MATCH_THRESHOLD", 0.0)
        receiver = ZigZagReceiver(ReceiverConfig(
            expected_symbols=n_symbols))
        for src, freq in freqs.items():
            receiver.clients.update(src, freq)
        cap1 = collision_capture(frames1, rng, (0, 160),
                                 {"s1": freqs[1], "s2": freqs[2]})
        original = cap1.samples.copy()
        assert receiver.receive(cap1.samples) == []
        record = next(iter(receiver.buffer))
        cap2 = collision_capture(frames2, rng, (0, 60),
                                 {"s3": freqs[3], "s4": freqs[4]})
        assert receiver.receive(cap2.samples) == []
        assert receiver.stats.match_attempts == 1
        assert receiver.stats.zigzag_matches == 0
        assert record in list(receiver.buffer)
        assert np.array_equal(record.samples, original)
        assert record.estimates
        fresh = Synchronizer()
        for (position, freq), estimate in record.estimates.items():
            assert fields(estimate) == fields(fresh.acquire(
                original, position, coarse_freq=freq))
