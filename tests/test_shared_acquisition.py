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

from repro.core import ReceiverConfig, ZigZagReceiver
from repro.phy.preamble import default_preamble
from repro.phy.pulse import PulseShaper
from repro.phy.sync import Synchronizer
from repro.receiver.buffer import CollisionBuffer, CollisionRecord
from repro.zigzag.detect import CollisionDetector
from repro.zigzag.engine import PacketSpec

from test_core_receiver import collision_capture, make_frames

PREAMBLE = default_preamble(32)
SHAPER = PulseShaper()
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
        index = start - SHAPER.delay + np.arange(wave.size)
        inside = (index >= 0) & (index < n)
        y[index[inside]] += wave[inside]
    return y


@st.composite
def acquisition_cases(draw):
    n = draw(st.integers(120, 360))
    delay = SHAPER.delay
    # Peaks within shaper.delay of either edge take the sampler's
    # zero-padding path.
    position = draw(st.one_of(st.integers(0, delay),
                              st.integers(n - 1 - delay, n - 1),
                              st.integers(0, n - 1)))
    freqs = draw(st.lists(st.sampled_from(FREQ_POOL), min_size=1,
                          max_size=6))
    return (draw(st.integers(0, 2**32 - 1)), n, position, freqs,
            draw(st.sampled_from(FREQ_POOL)), draw(st.booleans()))


class TestSharedGridAcquisition:
    @given(acquisition_cases())
    @settings(max_examples=60, deadline=None)
    def test_candidate_list_equals_independent_calls(self, case):
        seed, n, position, freqs, true_freq, refine = case
        y = capture(seed, n, [position], true_freq)
        shared = Synchronizer(PREAMBLE, SHAPER).acquire(
            y, position, coarse_freq=freqs, noise_power=1.0,
            refine_freq=refine)
        assert len(shared) == len(freqs)
        for freq, estimate in zip(freqs, shared):
            alone = Synchronizer(PREAMBLE, SHAPER).acquire(
                y, position, coarse_freq=freq, noise_power=1.0,
                refine_freq=refine)
            assert fields(estimate) == fields(alone)

    @given(acquisition_cases())
    @settings(max_examples=40, deadline=None)
    def test_kept_outputs_across_calls_change_nothing(self, case):
        """A record's ``sampled`` dict, reused by later calls at the same
        and at another peak, yields exactly what fresh calls yield."""
        seed, n, position, freqs, true_freq, _ = case
        y = capture(seed, n, [position], true_freq)
        other = (position + 7) % n
        sync = Synchronizer(PREAMBLE, SHAPER)
        kept: dict = {}
        first = sync.acquire(y, position, coarse_freq=freqs[:1],
                             sampled=kept)
        rest = sync.acquire(y, position, coarse_freq=freqs, sampled=kept)
        moved = sync.acquire(y, other, coarse_freq=freqs[-1], sampled=kept)
        fresh = Synchronizer(PREAMBLE, SHAPER)
        assert fields(first[0]) == fields(
            fresh.acquire(y, position, coarse_freq=freqs[0]))
        for freq, estimate in zip(freqs, rest):
            assert fields(estimate) == fields(
                fresh.acquire(y, position, coarse_freq=freq))
        assert fields(moved) == fields(
            fresh.acquire(y, other, coarse_freq=freqs[-1]))

    def test_scalar_returns_one_estimate_list_returns_list(self):
        y = capture(3, 300, [100], 1e-3)
        sync = Synchronizer(PREAMBLE, SHAPER)
        single = sync.acquire(y, 100, coarse_freq=1e-3)
        listed = sync.acquire(y, 100, coarse_freq=[1e-3])
        assert fields(listed[0]) == fields(single)
        assert sync.acquire(y, 100, coarse_freq=[]) == []


def merged_per_frequency(sync: Synchronizer, y, freqs, max_peaks=None):
    """The detect-and-merge loop as it ran before detection shared its
    normalization: one scalar detect per frequency."""
    merged = {}
    for freq in freqs:
        for peak in sync.detect(y, coarse_freq=freq, max_peaks=max_peaks):
            slot = min(merged.keys(),
                       key=lambda pos: abs(pos - peak.position),
                       default=None)
            if slot is not None and abs(slot - peak.position) <= 2:
                if merged[slot].score < peak.score:
                    del merged[slot]
                    merged[peak.position] = peak
            else:
                merged[peak.position] = peak
    peaks = sorted(merged.values(), key=lambda p: p.position)
    return peaks[:max_peaks] if max_peaks is not None else peaks


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
        detector = CollisionDetector(PREAMBLE, SHAPER, beta=0.4)
        oracle = Synchronizer(PREAMBLE, SHAPER, threshold=0.4)
        assert detector.find_packets(y, freqs, max_peaks=max_peaks) == \
            merged_per_frequency(oracle, y, freqs, max_peaks)
        per_freq = Synchronizer(PREAMBLE, SHAPER, threshold=0.4).detect(
            y, coarse_freq=freqs, max_peaks=max_peaks)
        assert per_freq == [oracle.detect(y, coarse_freq=f,
                                          max_peaks=max_peaks)
                            for f in freqs]

    def test_short_capture_still_rejected(self):
        from repro.errors import CollisionDetectError
        sync = Synchronizer(PREAMBLE, SHAPER)
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

    def test_memo_survives_a_failed_zigzag_attempt(self, rng):
        """A stored collision takes part in a ZigZag attempt that fails
        (the new collision holds other packets). The decoders work on
        copies, so the record's samples are untouched, and every
        memoized estimate equals a fresh acquisition."""
        freqs = {1: 3e-3, 2: -2e-3, 3: 1e-3, 4: -1e-3}
        frames1 = make_frames(rng, PREAMBLE, srcs=(1, 2))
        frames2 = make_frames(rng, PREAMBLE, srcs=(3, 4))
        n_symbols = frames1["s1"].n_symbols
        # A zero match threshold makes the unrelated pair "match", so a
        # ZigZag decode is attempted on the stored record and fails.
        receiver = ZigZagReceiver(ReceiverConfig(
            preamble=PREAMBLE, shaper=SHAPER, noise_power=1.0,
            expected_symbols=n_symbols, match_threshold=0.0,
            enable_sic=False))
        for src, freq in freqs.items():
            receiver.clients.update(src, freq)
        cap1 = collision_capture(frames1, SHAPER, rng, (0, 160),
                                 {"s1": freqs[1], "s2": freqs[2]})
        original = cap1.samples.copy()
        assert receiver.receive(cap1.samples) == []
        record = next(iter(receiver.buffer))
        cap2 = collision_capture(frames2, SHAPER, rng, (0, 60),
                                 {"s3": freqs[3], "s4": freqs[4]})
        assert receiver.receive(cap2.samples) == []
        assert receiver.stats.match_attempts == 1
        assert receiver.stats.zigzag_matches == 0
        assert record in list(receiver.buffer)
        assert np.array_equal(record.samples, original)
        assert record.estimates
        fresh = Synchronizer(PREAMBLE, SHAPER)
        for (position, freq), estimate in record.estimates.items():
            assert fields(estimate) == fields(fresh.acquire(
                original, position, coarse_freq=freq, noise_power=1.0))

        # SIC decodes a stored record in place of the capture too; it
        # must copy rather than subtract into the read-only samples.
        placements = receiver._acquire_placements(record, record.peaks, 0)
        specs = {p.packet: PacketSpec(p.packet, n_symbols)
                 for p in placements}
        receiver.sic.decode(record.samples, specs, placements)
        assert np.array_equal(record.samples, original)
