"""Fig 4-2: detecting collisions by correlation with the known preamble.

Reproduces the figure's experiment: a collision of two packets; the
compensated preamble correlation is swept across the received signal and
must spike exactly at the second packet's start — and nowhere comparable
elsewhere.

Ported to the Monte-Carlo runner: the trace is one ``map`` trial with
runner-derived seeding.
"""

import numpy as np

from repro.phy.channel import ChannelParams
from repro.phy.frame import Frame
from repro.phy.medium import Transmission, synthesize
from repro.phy.pulse import DELAY
from repro.phy.sync import Synchronizer
from repro.runner import MonteCarloRunner
from repro.utils.bits import random_bits


def correlation_trace(ctx, offset=300, snr_db=12.0):
    """Build one two-packet collision and sweep the correlation over it."""
    rng = ctx.rng
    amp = np.sqrt(10 ** (snr_db / 10))
    frames = [Frame.make(random_bits(400, rng), src=i + 1) for i in range(2)]
    freqs = [2e-3, -3e-3]
    txs = [Transmission.from_symbols(
        frames[i].symbols,
        ChannelParams(gain=amp * np.exp(1j * rng.uniform(0, 6.28)),
                      freq_offset=freqs[i],
                      sampling_offset=rng.uniform(0, 1)),
        (0, offset)[i], "ab"[i]) for i in range(2)]
    capture = synthesize(txs, 1.0, rng, leading=8, tail=30)
    sync = Synchronizer(threshold=0.6)
    scores = sync.correlation_scores(capture.samples, coarse_freq=freqs[1])
    alice_start = capture.transmissions[0].symbol0 - DELAY
    bob_start = capture.transmissions[1].symbol0 - DELAY
    return scores, alice_start, bob_start


def run():
    return MonteCarloRunner().map(correlation_trace, 1, seed=3)[0]


def test_fig4_2_correlation_spike(benchmark, record_table):
    scores, alice_start, bob_start = benchmark(run)
    # The figure's claim is about the spike in the *middle* of the
    # reception: exclude Alice's own (partially-compensated) preamble.
    mask = np.ones(scores.size, bool)
    mask[max(0, alice_start - 16):alice_start + 17] = False
    peak = int(np.flatnonzero(mask)[np.argmax(scores[mask])])
    floor_mask = mask.copy()
    floor_mask[max(0, peak - 16):peak + 17] = False
    floor = scores[floor_mask].max()
    lines = [
        f"mid-reception spike position : {peak} (true {bob_start})",
        f"spike score                  : {scores[peak]:.3f}",
        f"max sidelobe elsewhere       : {floor:.3f}",
        f"spike/floor ratio            : {scores[peak] / floor:.2f}x",
    ]
    record_table("fig4_2", "Fig 4-2: preamble correlation vs position",
                 lines)
    assert abs(peak - bob_start) <= 1
    assert scores[peak] > 1.15 * floor
