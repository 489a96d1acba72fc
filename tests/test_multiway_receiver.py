"""k-way collision resolution end to end (§4.5) + receive-path contracts.

Covers the whole-stack generalization of this repo's receive path from
pairwise to k-way: the multi decoder's equivalence with the historical
pair decoder at k = 2 (Hypothesis-pinned, bit-exact), the online
:class:`~repro.core.ZigZagReceiver` resolving three packets from three
collisions through its collision-set matcher, the successes-only
``receive()`` contract, and the streaming ``three_senders_stream``
scenario resolving Fig 5-9's three hidden senders fairly.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import ReceiverConfig, ZigZagReceiver
from repro.phy.channel import ChannelParams
from repro.phy.frame import Frame
from repro.phy.medium import Transmission, synthesize
from repro.phy.preamble import default_preamble
from repro.phy.pulse import PulseShaper
from repro.receiver.frontend import StreamConfig
from repro.runner.builders import hidden_pair_scenario
from repro.utils.bits import random_bits
from repro.zigzag.decoder import ZigZagMultiDecoder

PRE = default_preamble(32)
SH = PulseShaper()
NAMES = ("A", "B", "C")
FREQS = {"A": 3e-3, "B": -2e-3, "C": 1e-3}


def three_way_captures(rng, frames, offset_rounds, snr_db=13.0):
    """One capture per round, all three senders colliding."""
    amp = np.sqrt(10 ** (snr_db / 10))
    captures = []
    for offsets in offset_rounds:
        txs = []
        for name, offset in zip(NAMES, offsets):
            params = ChannelParams(
                gain=amp * np.exp(1j * rng.uniform(0, 2 * np.pi)),
                freq_offset=FREQS[name],
                sampling_offset=float(rng.uniform(0, 1)),
                phase_noise_std=1e-3)
            txs.append(Transmission.from_symbols(
                frames[name].symbols, SH, params, offset, name))
        captures.append(synthesize(txs, 1.0, rng, leading=8, tail=30))
    return captures


def three_way_receiver(n_symbols):
    receiver = ZigZagReceiver(ReceiverConfig(
        preamble=PRE, shaper=SH,
        expected_symbols=n_symbols, max_collision_packets=3,
        buffer_capacity=6))
    for i, name in enumerate(NAMES):
        receiver.clients.update(i + 1, FREQS[name])
    return receiver


class TestCaptureCopies:
    """k-copy MRC re-reads cleaned captures from k = 3 up: at k = 2 the
    forward and backward passes already are the two copies."""

    @given(st.integers(0, 2**20))
    @settings(max_examples=10, deadline=None)
    def test_never_at_k2(self, seed):
        rng = np.random.default_rng(seed)
        config = StreamConfig(preamble=PRE, shaper=SH)
        captures, frames, specs, placements = hidden_pair_scenario(
            rng, PRE, SH, snr_db=7.0, payload_bits=160)
        caps = [c.samples for c in captures]
        multi = ZigZagMultiDecoder(config).decode(caps, specs, placements)
        assert multi.capture_soft is None  # extra copies never ran

    def test_engaged_at_k3(self, rng, preamble, shaper, stream_config):
        """The set is at 8 dB so the forward pass leaves a packet
        failing: only then are extra copies combined at all."""
        frames = {n: Frame.make(random_bits(160, rng), src=i + 1,
                                preamble=preamble)
                  for i, n in enumerate(NAMES)}
        captures = three_way_captures(rng, frames,
                                      [(0, 80, 180), (60, 0, 140),
                                       (100, 40, 0)], snr_db=8.0)
        from repro.phy.sync import Synchronizer
        from repro.zigzag.engine import PacketSpec, PlacementParams
        sync = Synchronizer(preamble, shaper, threshold=0.3)
        placements = []
        for ci, capture in enumerate(captures):
            for t in capture.transmissions:
                est = sync.acquire(capture.samples, t.symbol0,
                                   coarse_freq=FREQS[t.label])
                placements.append(PlacementParams(
                    t.label, ci, t.symbol0 + est.sampling_offset, est))
        specs = {n: PacketSpec(n, frames[n].n_symbols) for n in NAMES}
        caps = [c.samples for c in captures]
        forward = ZigZagMultiDecoder(
            stream_config, use_backward=False).decode(
            caps, specs, placements)
        assert not forward.all_decoded
        assert forward.capture_soft is None
        multi = ZigZagMultiDecoder(stream_config).decode(
            caps, specs, placements)
        assert multi.backward_soft is not None
        assert multi.capture_soft  # k-copy MRC engaged for k = 3


class TestOnlineThreeWay:
    """Three mutually-hidden senders through the online AP (§4.5)."""

    def test_three_collisions_resolve_three_packets(self, rng):
        frames = {n: Frame.make(random_bits(200, rng), src=i + 1,
                                preamble=PRE)
                  for i, n in enumerate(NAMES)}
        receiver = three_way_receiver(frames["A"].n_symbols)
        captures = three_way_captures(
            rng, frames, [(0, 80, 180), (60, 0, 140), (100, 40, 0)])
        assert receiver.receive(captures[0].samples) == []
        assert receiver.receive(captures[1].samples) == []
        results = receiver.receive(captures[2].samples)
        recovered = sorted(r.header.src for r in results)
        assert recovered == [1, 2, 3]
        for result in results:
            name = NAMES[result.header.src - 1]
            assert result.ber_against(frames[name].body_bits) < 1e-3
        stats = receiver.stats
        assert stats.multiway_matches == 1
        assert stats.packets_multiway == 3
        assert stats.zigzag_matches == 1
        assert len(receiver.buffer) == 0  # the whole set was consumed

    def test_kway_counters_count_only_sets_of_three_captures(self):
        """multiway_attempts, multiway_matches and packets_multiway all
        count collision sets of three or more captures: a k = 3 set tried
        and decoded from two captures is a ZigZag match and nothing more,
        and a three-capture set adds to all three."""
        rng = np.random.default_rng(1)
        frames = {n: Frame.make(random_bits(64, rng), src=i + 1,
                                preamble=PRE)
                  for i, n in enumerate(NAMES)}
        receiver = three_way_receiver(frames["A"].n_symbols)
        first, second = three_way_captures(
            rng, frames, [(0, 150, 330), (0, 190, 360)])
        assert receiver.receive(first.samples) == []
        assert receiver.receive(second.samples)
        stats = receiver.stats
        assert stats.zigzag_matches == 1
        assert (stats.multiway_attempts, stats.multiway_matches,
                stats.packets_multiway) == (0, 0, 0)

        rng = np.random.default_rng(2)
        frames = {n: Frame.make(random_bits(200, rng), src=i + 1,
                                preamble=PRE)
                  for i, n in enumerate(NAMES)}
        receiver = three_way_receiver(frames["A"].n_symbols)
        captures = three_way_captures(
            rng, frames, [(0, 80, 180), (60, 0, 140), (100, 40, 0)])
        for capture in captures[:2]:
            assert receiver.receive(capture.samples) == []
        assert len(receiver.receive(captures[2].samples)) == 3
        stats = receiver.stats
        assert (stats.multiway_attempts, stats.multiway_matches,
                stats.packets_multiway) == (1, 1, 3)

    def test_reordered_arrivals_still_match(self, rng):
        """Backoff jitter permutes arrival order between collisions; the
        peak-correspondence search must recover the identity mapping."""
        frames = {n: Frame.make(random_bits(200, rng), src=i + 1,
                                preamble=PRE)
                  for i, n in enumerate(NAMES)}
        receiver = three_way_receiver(frames["A"].n_symbols)
        # A,B,C / C,A,B / B,C,A arrival orders.
        captures = three_way_captures(
            rng, frames, [(0, 80, 180), (100, 180, 0), (180, 0, 100)])
        decoded = []
        for capture in captures:
            decoded.extend(receiver.receive(capture.samples))
        assert sorted(r.header.src for r in decoded) == [1, 2, 3]

    def test_degenerate_identical_offsets_not_consumed(self, rng):
        """Same arrival pattern every time is the §4.5 failure case: the
        receiver must keep storing rather than attempt the degenerate
        set."""
        frames = {n: Frame.make(random_bits(200, rng), src=i + 1,
                                preamble=PRE)
                  for i, n in enumerate(NAMES)}
        receiver = three_way_receiver(frames["A"].n_symbols)
        captures = three_way_captures(
            rng, frames, [(0, 80, 180)] * 3)
        for capture in captures:
            assert receiver.receive(capture.samples) == []
        assert receiver.stats.multiway_matches == 0
        assert len(receiver.buffer) == 3


class TestReceiveContract:
    """receive() returns successes only (regression for the failed-
    DecodeResult leak on the single-peak standard-decode-failure path)."""

    def test_single_peak_decode_failure_returns_empty(self, rng):
        """A lone detected preamble whose standard decode fails used to
        leak the failed DecodeResult (with its garbage bits) into the
        return list; the contract is successes only."""
        frame = Frame.make(random_bits(200, rng), src=1, preamble=PRE)
        receiver = ZigZagReceiver(ReceiverConfig(
            preamble=PRE, shaper=SH,
            expected_symbols=frame.n_symbols))
        receiver.clients.update(1, 2e-3)
        # Drown the packet: SNR far below decodability, but the preamble
        # correlation still spikes at high beta... use a truncated body so
        # the CRC cannot pass while the preamble stays detectable.
        params = ChannelParams(gain=3.0 + 0j, freq_offset=2e-3,
                               sampling_offset=0.3)
        tx = Transmission.from_symbols(frame.symbols, SH, params, 0, "x")
        capture = synthesize([tx], 1.0, rng, leading=8, tail=30)
        cut = capture.samples[:len(capture.samples) // 2]
        results = receiver.receive(cut)
        assert results == [] or all(r.success for r in results)

    def test_match_counters_distinguish_reject_from_unscoreable(
            self, rng):
        """match_attempts counts scored records; match_rejects_threshold
        counts the ones that scored below the bar — so 'scanned but
        nothing cleared the threshold' is observable."""
        frames1 = {n: Frame.make(random_bits(200, rng), src=i + 1,
                                 preamble=PRE)
                   for i, n in enumerate(("s1", "s2"))}
        frames2 = {n: Frame.make(random_bits(200, rng), src=i + 3,
                                 preamble=PRE)
                   for i, n in enumerate(("s3", "s4"))}
        receiver = ZigZagReceiver(ReceiverConfig(
            preamble=PRE, shaper=SH,
            expected_symbols=frames1["s1"].n_symbols))
        for src, freq in ((1, 3e-3), (2, -2e-3), (3, 1e-3), (4, -1e-3)):
            receiver.clients.update(src, freq)

        def collide(frames, offsets, freqs):
            txs = []
            for (name, frame), offset in zip(frames.items(), offsets):
                params = ChannelParams(
                    gain=np.sqrt(10 ** 1.3)
                    * np.exp(1j * rng.uniform(0, 2 * np.pi)),
                    freq_offset=freqs[name],
                    sampling_offset=float(rng.uniform(0, 1)),
                    phase_noise_std=1e-3)
                txs.append(Transmission.from_symbols(
                    frame.symbols, SH, params, offset, name))
            return synthesize(txs, 1.0, rng, leading=8, tail=30)

        # Two collisions of *different* packet pairs: the second scores
        # the first but must reject it below threshold.
        receiver.receive(collide(frames1, (0, 160),
                                 {"s1": 3e-3, "s2": -2e-3}).samples)
        receiver.receive(collide(frames2, (0, 60),
                                 {"s3": 1e-3, "s4": -1e-3}).samples)
        assert receiver.stats.match_attempts >= 1
        assert receiver.stats.match_rejects_threshold \
            == receiver.stats.match_attempts
        assert receiver.stats.zigzag_matches == 0


class TestStreamMatchesOffline:
    """Acceptance: the online three_senders_stream path resolves k-way
    sets at a Fig 5-9 collision-airtime throughput, fairly."""

    def test_three_senders_stream_matches_fig_5_9(self):
        from repro.runner.scenarios import TrialContext, get_scenario
        from repro.runner.spec import ScenarioSpec

        spec = ScenarioSpec(kind="three_senders_stream", design="zigzag",
                            payload_bits=200, n_packets=3,
                            params={"n_senders": 3, "snr_db": 13.0})
        fn = get_scenario("three_senders_stream").trial
        online = []
        for index in range(4):
            metrics = fn(spec, TrialContext.for_trial(0, index)).metrics
            online.append(np.mean(
                [metrics[f"collision_throughput_{n}"] for n in NAMES]))
            assert metrics["fairness_ratio"] < 4.0
        # The online path must genuinely resolve k-way sets.
        assert float(np.mean(online)) > 0.1
