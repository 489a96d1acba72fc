"""End-to-end ZigZagReceiver tests: the §5.1(d) flow control."""

import numpy as np
import pytest

from repro.core import ClientTable, ReceiverConfig, ZigZagReceiver
from repro.core.api import BUFFER_MAX_AGE, CLIENT_SMOOTHING
from repro.phy.channel import ChannelParams
from repro.phy.correlation import CorrelationPeak
from repro.phy.frame import Frame
from repro.phy.medium import Transmission, synthesize
from repro.utils.bits import random_bits


def clean_capture(frame, rng, snr_db=14.0, freq=2e-3):
    params = ChannelParams(
        gain=np.sqrt(10 ** (snr_db / 10))
        * np.exp(1j * rng.uniform(0, 2 * np.pi)),
        freq_offset=freq, sampling_offset=float(rng.uniform(0, 1)))
    tx = Transmission.from_symbols(frame.symbols, params, 0, "x")
    return synthesize([tx], 1.0, rng, leading=8, tail=30)


def collision_capture(frames, rng, offsets, freqs, snr_db=13.0):
    txs = []
    for (name, frame), offset in zip(frames.items(), offsets):
        params = ChannelParams(
            gain=np.sqrt(10 ** (snr_db / 10))
            * np.exp(1j * rng.uniform(0, 2 * np.pi)),
            freq_offset=freqs[name],
            sampling_offset=float(rng.uniform(0, 1)),
            phase_noise_std=1e-3)
        txs.append(Transmission.from_symbols(frame.symbols, params,
                                             offset, name))
    return synthesize(txs, 1.0, rng, leading=8, tail=30)


class TestClientTable:
    def test_update_and_get(self):
        table = ClientTable()
        table.update(1, 2e-3)
        assert table.get(1) == pytest.approx(2e-3)
        assert table.get(99, default=0.0) == 0.0

    def test_ewma_smooths(self):
        table = ClientTable()
        table.update(1, 0.0)
        table.update(1, 1e-3)
        assert table.get(1) == pytest.approx(CLIENT_SMOOTHING * 1e-3)

    def test_candidates_always_nonempty(self):
        table = ClientTable()
        assert table.candidates() == [0.0]
        table.update(1, 3e-3)
        assert 3e-3 in table.candidates()

    def test_candidates_fall_back_to_zero_only_while_empty(self):
        table = ClientTable()
        assert table.candidates() == [0.0]
        table.update(1, 3e-3)
        table.update(2, -2e-3)
        table.update(3, 3e-3)
        assert table.candidates() == [-2e-3, 3e-3]


class TestReceiverFlow:
    def test_clean_packet_decoded_and_learned(self, rng):
        frame = Frame.make(random_bits(200, rng), src=5)
        config = ReceiverConfig(expected_symbols=frame.n_symbols)
        receiver = ZigZagReceiver(config)
        # First reception: the table has no freq estimate; send with a
        # tiny offset so blind detection works, then learn.
        cap = clean_capture(frame, rng, freq=2e-4)
        results = receiver.receive(cap.samples)
        assert len(results) == 1 and results[0].success
        assert len(receiver.clients) == 1

    def test_noise_returns_nothing(self, rng):
        frame = Frame.make(random_bits(200, rng), src=5)
        receiver = ZigZagReceiver(ReceiverConfig(
            expected_symbols=frame.n_symbols))
        noise = rng.standard_normal(700) + 1j * rng.standard_normal(700)
        assert receiver.receive(noise) == []

    def test_collision_stored_then_resolved_on_match(self, rng):
        """The paper's core loop: first collision is stored; the matching
        retransmission collision resolves both packets."""
        frames = {
            "A": Frame.make(random_bits(200, rng), src=1),
            "B": Frame.make(random_bits(200, rng), src=2),
        }
        freqs = {"A": 3e-3, "B": -2e-3}
        config = ReceiverConfig(expected_symbols=frames["A"].n_symbols)
        receiver = ZigZagReceiver(config)
        receiver.clients.update(1, freqs["A"])
        receiver.clients.update(2, freqs["B"])
        cap1 = collision_capture(frames, rng, (0, 160), freqs)
        cap2 = collision_capture(frames, rng, (0, 60), freqs)
        first = receiver.receive(cap1.samples)
        assert first == []          # stored, waiting for a match
        assert len(receiver.buffer) == 1
        second = receiver.receive(cap2.samples)
        assert len(second) == 2
        recovered = sorted(r.header.src for r in second
                           if r.success and r.header is not None)
        assert recovered == [1, 2]
        assert len(receiver.buffer) == 0

    def test_equal_offset_collisions_not_matched(self, rng):
        frames = {
            "A": Frame.make(random_bits(200, rng), src=1),
            "B": Frame.make(random_bits(200, rng), src=2),
        }
        freqs = {"A": 3e-3, "B": -2e-3}
        config = ReceiverConfig(expected_symbols=frames["A"].n_symbols)
        receiver = ZigZagReceiver(config)
        receiver.clients.update(1, freqs["A"])
        receiver.clients.update(2, freqs["B"])
        cap1 = collision_capture(frames, rng, (0, 100), freqs)
        cap2 = collision_capture(frames, rng, (0, 100), freqs)
        receiver.receive(cap1.samples)
        results = receiver.receive(cap2.samples)
        # Identical offsets are undecodable; the new collision is stored.
        assert results == []
        assert len(receiver.buffer) == 2


def make_frames(rng, srcs=(1, 2), bits=200):
    return {f"s{src}": Frame.make(random_bits(bits, rng), src=src)
            for src in srcs}


def pair_receiver(n_symbols, freqs, **overrides):
    config = ReceiverConfig(expected_symbols=n_symbols, **overrides)
    receiver = ZigZagReceiver(config)
    for src, freq in freqs.items():
        receiver.clients.update(src, freq)
    return receiver


class TestCollisionBufferLifecycle:
    """The store / match-and-remove / evict / skip paths the streaming
    session leans on (§4.2.2, §4.5)."""

    def test_store_on_no_match(self, rng):
        """Collisions of *different* packet pairs do not match: both get
        stored, nothing is decoded."""
        freqs = {1: 3e-3, 2: -2e-3, 3: 1e-3, 4: -1e-3}
        frames1 = make_frames(rng, srcs=(1, 2))
        frames2 = make_frames(rng, srcs=(3, 4))
        receiver = pair_receiver(next(iter(frames1.values())).n_symbols,
                                 freqs)
        cap1 = collision_capture(frames1, rng, (0, 160),
                                 {"s1": freqs[1], "s2": freqs[2]})
        cap2 = collision_capture(frames2, rng, (0, 60),
                                 {"s3": freqs[3], "s4": freqs[4]})
        assert receiver.receive(cap1.samples) == []
        assert receiver.receive(cap2.samples) == []
        assert len(receiver.buffer) == 2
        assert receiver.stats.collisions_stored == 2
        assert receiver.stats.zigzag_matches == 0

    def test_match_removes_record_and_counts(self, rng):
        freqs = {1: 3e-3, 2: -2e-3}
        frames = make_frames(rng)
        receiver = pair_receiver(frames["s1"].n_symbols, freqs)
        named_freqs = {"s1": freqs[1], "s2": freqs[2]}
        cap1 = collision_capture(frames, rng, (0, 160), named_freqs)
        cap2 = collision_capture(frames, rng, (0, 60), named_freqs)
        receiver.receive(cap1.samples)
        results = receiver.receive(cap2.samples)
        assert len(results) == 2
        assert len(receiver.buffer) == 0
        assert receiver.stats.zigzag_matches == 1

    def test_fifo_eviction_at_capacity(self, rng):
        """The oldest record is evicted once the buffer is full, and the
        eviction is counted."""
        freqs = {i: f for i, f in zip(range(1, 9),
                                      (3e-3, -2e-3, 1e-3, -1e-3,
                                       2e-3, -3e-3, 1.5e-3, -1.5e-3))}
        receiver = None
        first_record = None
        for pair in ((1, 2), (3, 4), (5, 6), (7, 8)):
            frames = make_frames(rng, srcs=pair)
            if receiver is None:
                receiver = pair_receiver(
                    next(iter(frames.values())).n_symbols, freqs,
                    buffer_capacity=2)
            named = {n: freqs[src] for n, src in
                     zip(frames, pair)}
            receiver.receive(collision_capture(
                frames, rng, (0, 160), named).samples)
            if first_record is None and len(receiver.buffer):
                first_record = next(iter(receiver.buffer))
        assert len(receiver.buffer) == 2
        assert first_record not in list(receiver.buffer)
        assert receiver.stats.evictions_capacity >= 1

    def test_identical_offset_skipped_not_matched(self, rng):
        """§4.5: same-offset collisions are undecodable — the receiver
        must store the new one rather than attempt the match."""
        freqs = {1: 3e-3, 2: -2e-3}
        frames = make_frames(rng)
        receiver = pair_receiver(frames["s1"].n_symbols, freqs)
        named_freqs = {"s1": freqs[1], "s2": freqs[2]}
        for _ in range(2):
            receiver.receive(collision_capture(
                frames, rng, (0, 100), named_freqs).samples)
        assert len(receiver.buffer) == 2
        assert receiver.stats.zigzag_matches == 0

    def test_age_pruning(self, rng):
        """BUFFER_MAX_AGE: stale records are dropped as the stream moves
        on (retransmissions arrive within a few receptions, §4.2.2)."""
        freqs = {1: 3e-3, 2: -2e-3}
        frames = make_frames(rng)
        receiver = pair_receiver(frames["s1"].n_symbols, freqs)
        named_freqs = {"s1": freqs[1], "s2": freqs[2]}
        receiver.receive(collision_capture(
            frames, rng, (0, 160), named_freqs).samples)
        assert len(receiver.buffer) == 1

        def receive_noise():   # noise-only receives advance the clock
            noise = (rng.standard_normal(600)
                     + 1j * rng.standard_normal(600)) / np.sqrt(2)
            receiver.receive(noise)
        for _ in range(BUFFER_MAX_AGE):
            receive_noise()
        assert len(receiver.buffer) == 1   # exactly BUFFER_MAX_AGE old
        receive_noise()
        assert len(receiver.buffer) == 0
        assert receiver.stats.evictions_age == 1

    def test_short_alignment_record_skipped(self, rng):
        """Regression: a stored record whose second peak sits at the tail
        of its capture used to abort the whole receive call — match_score
        sees < 8 aligned samples and raises. It must count as 'no match'
        and the scan must continue."""
        freqs = {1: 3e-3, 2: -2e-3}
        frames = make_frames(rng)
        receiver = pair_receiver(frames["s1"].n_symbols, freqs)
        # Hand-craft a pathological record: second packet "starting"
        # three samples before the capture ends.
        short = (rng.standard_normal(400)
                 + 1j * rng.standard_normal(400)) / np.sqrt(2)
        receiver.buffer.add(short, [
            CorrelationPeak(position=0, value=1.0 + 0j, score=0.9),
            CorrelationPeak(position=397, value=1.0 + 0j, score=0.8)])
        named_freqs = {"s1": freqs[1], "s2": freqs[2]}
        capture = collision_capture(frames, rng, (0, 160),
                                    named_freqs)
        results = receiver.receive(capture.samples)   # must not raise
        assert results == []
        assert receiver.stats.short_alignments == 1
        assert len(receiver.buffer) == 2   # pathological + new collision
