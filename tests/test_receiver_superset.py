"""The ZigZag AP decodes a superset of what the 802.11 AP decodes.

§5.1(d): a ZigZag AP runs the standard decoder first and engages ZigZag
only when that fails, so on the same air it must deliver every packet
the Current-802.11 baseline delivers. Both APs share one standard stage
(:meth:`~repro.core.api.StandardAp._standard_stage`); these tests pin
the property open-loop on identical captures, and pin the two receive
paths that the shared stage needs from the collision path:

- a collision whose strongest peak fails while its second peak decodes
  still goes on to the collision path (the stage's success is kept, and
  the stored collision later resolves the other packet);
- a pair whose retransmission arrives in swapped order is matched under
  the §4.2.2 peak correspondence, like every other k.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import ReceiverConfig, ZigZagReceiver
from repro.link.aps import StandardAp
from repro.phy.channel import ChannelParams
from repro.phy.frame import Frame
from repro.phy.medium import Transmission, synthesize
from repro.utils.bits import random_bits

PAYLOAD_BITS = 200


def make_frames(rng, srcs):
    return {src: Frame.make(random_bits(PAYLOAD_BITS, rng), src=src)
            for src in srcs}


def collide(rng, frames, offsets, snrs_db, freqs):
    """One capture of *frames*, each at its own offset, SNR and CFO."""
    txs = []
    for src, frame in frames.items():
        params = ChannelParams(
            gain=np.sqrt(10 ** (snrs_db[src] / 10))
            * np.exp(1j * rng.uniform(0, 2 * np.pi)),
            freq_offset=freqs[src],
            sampling_offset=float(rng.uniform(0, 1)),
            phase_noise_std=1e-3)
        txs.append(Transmission.from_symbols(frame.symbols, params,
                                             offsets[src], str(src)))
    return synthesize(txs, 1.0, rng, leading=8, tail=30).samples


def seeded(ap, freqs):
    """*ap* with its client table seeded at association, as a session
    seeds it."""
    for src, freq in freqs.items():
        ap.clients.update(src, freq)
    return ap


def config(n_symbols):
    return ReceiverConfig(expected_symbols=n_symbols)


def delivered(results, frames):
    """The sources whose returned packet carries the sent bits."""
    return {r.header.src for r in results
            if r.ber_against(frames[r.header.src].body_bits) < 1e-3}


class TestSuperset:
    @given(seed=st.integers(0, 2**32 - 1),
           n_packets=st.integers(1, 3),
           snrs_db=st.lists(st.floats(6.0, 16.0), min_size=3, max_size=3),
           freqs=st.lists(st.floats(-4e-3, 4e-3), min_size=3, max_size=3),
           offsets=st.lists(st.integers(0, 1200), min_size=3, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_zigzag_successes_contain_standard_ap_successes(
            self, seed, n_packets, snrs_db, freqs, offsets):
        """Same client table, same capture: every packet the 802.11 AP
        returns, the ZigZag AP returns too."""
        rng = np.random.default_rng(seed)
        srcs = (1, 2, 3)
        frames = make_frames(rng, srcs[:n_packets])
        table = dict(zip(srcs, freqs))
        capture = collide(rng, frames, dict(zip(srcs, offsets)),
                          dict(zip(srcs, snrs_db)), table)
        n_symbols = frames[1].n_symbols
        standard = seeded(StandardAp(config(n_symbols)), table)
        zigzag = seeded(ZigZagReceiver(config(n_symbols)), table)
        baseline = {(r.header.src, r.bits.tobytes())
                    for r in standard.receive(capture)}
        ours = {(r.header.src, r.bits.tobytes())
                for r in zigzag.receive(capture)}
        assert baseline <= ours


class TestCollisionPathAfterStage:
    def test_second_peak_success_still_reaches_collision_path(self, rng):
        """A decodes alone at the start of the capture, so its peak is
        the strongest; B, 6 dB stronger, lands on A's tail. A fails and
        B standard-decodes through it, at less than the SIC dominance
        margin. The stage keeps B, and the collision is stored, not
        dropped: the next collision of the pair resolves A."""
        freqs = {1: 3e-3, 2: -2e-3}
        snrs = {1: 16.0, 2: 22.0}
        frames = make_frames(rng, (1, 2))
        receiver = seeded(ZigZagReceiver(config(frames[1].n_symbols)),
                          freqs)
        first = collide(rng, frames, {1: 0, 2: 200}, snrs, freqs)
        peaks = receiver.detector.inspect(
            first, receiver.clients.candidates()).peaks
        assert len(peaks) == 2 and peaks[0].score > peaks[1].score
        assert delivered(receiver.receive(first), frames) == {2}
        assert receiver.stats.collisions_detected == 1
        assert len(receiver.buffer) == 1
        second = collide(rng, frames, {1: 0, 2: 100}, snrs, freqs)
        assert 1 in delivered(receiver.receive(second), frames)
        assert receiver.stats.zigzag_matches == 1
        assert len(receiver.buffer) == 0

    def test_swapped_arrival_order_pair_is_matched(self, rng):
        """Retransmission jitter swaps who arrives first: A then B, then
        B then A. The pair is matched under the swapped peak
        correspondence and both packets decode."""
        freqs = {1: 3e-3, 2: -2e-3}
        snrs = {1: 13.0, 2: 13.0}
        frames = make_frames(rng, (1, 2))
        receiver = seeded(ZigZagReceiver(config(frames[1].n_symbols)),
                          freqs)
        first = collide(rng, frames, {1: 0, 2: 160}, snrs, freqs)
        assert receiver.receive(first) == []
        second = collide(rng, frames, {1: 60, 2: 0}, snrs, freqs)
        assert delivered(receiver.receive(second), frames) == {1, 2}
        assert receiver.stats.zigzag_matches == 1
        assert len(receiver.buffer) == 0
