"""Fig 5-2: (a) bit errors accumulate along the packet without frequency
tracking; (b) ISI makes a received bit depend on its neighbours.

Ported to the Monte-Carlo runner: both panels run as ``map`` trials with
runner-derived seeding.
"""

import numpy as np

from repro.phy.channel import Channel, ChannelParams
from repro.phy.constellation import BPSK
from repro.phy.frame import Frame
from repro.phy.isi import default_isi_taps
from repro.phy.medium import Transmission, synthesize
from repro.phy.pulse import DELAY, SHAPER, MatchedSampler
from repro.receiver.decoder import StandardDecoder
from repro.runner import MonteCarloRunner
from repro.utils.bits import random_bits


def error_profile_without_tracking(ctx, payload_bits=2400):
    """(a): decode a long packet with tracking disabled and a residual
    frequency error; return per-quarter error rates."""
    rng = ctx.rng
    frame = Frame.make(random_bits(payload_bits, rng), src=1)
    freq = 2e-3
    params = ChannelParams(gain=6.0, freq_offset=freq)
    tx = Transmission.from_symbols(frame.symbols, params, 0, "a")
    cap = synthesize([tx], 1.0, rng, leading=8, tail=30)
    decoder = StandardDecoder(coarse_freq=freq + 8e-5, track_phase=False)
    result = decoder.decode(cap.samples)
    bits = result.bits if result.bits.size else np.zeros(0, np.uint8)
    n = min(bits.size, frame.body_bits.size)
    errors = (bits[:n] != frame.body_bits[:n]).astype(float)
    quarters = [errors[i * n // 4:(i + 1) * n // 4].mean()
                for i in range(4)]
    return quarters


def isi_prone_symbols(ctx, n_symbols=4000):
    """(b): mean received value of a '1' symbol conditioned on the
    previous symbol, through an ISI channel."""
    rng = ctx.rng
    bits = random_bits(n_symbols, rng)
    symbols = BPSK.modulate(bits)
    params = ChannelParams(gain=1.0,
                           isi_taps=tuple(default_isi_taps(0.5)))
    wave = Channel(params, rng).apply(SHAPER.shape(symbols))
    received = MatchedSampler().sample(wave, DELAY, n_symbols).real
    prev = np.roll(bits, 1)[1:]
    current = bits[1:]
    r = received[1:]
    one_after_one = r[(current == 1) & (prev == 1)].mean()
    one_after_zero = r[(current == 1) & (prev == 0)].mean()
    zero_after_one = r[(current == 0) & (prev == 1)].mean()
    zero_after_zero = r[(current == 0) & (prev == 0)].mean()
    return one_after_one, one_after_zero, zero_after_one, zero_after_zero


def run_both():
    runner = MonteCarloRunner()
    quarters = runner.map(error_profile_without_tracking, 1, seed=4)[0]
    isi = runner.map(isi_prone_symbols, 1, seed=5)[0]
    return quarters, isi


def test_fig5_2_effects(benchmark, record_table):
    quarters, isi = benchmark.pedantic(run_both, rounds=1, iterations=1)
    oo, oz, zo, zz = isi
    lines = [
        "(a) error rate by packet quarter, tracking disabled:",
        "    " + "  ".join(f"Q{i + 1}={q:.3f}"
                           for i, q in enumerate(quarters)),
        "(b) mean received '1' after '1': "
        f"{oo:+.3f}   after '0': {oz:+.3f}",
        "    mean received '0' after '1': "
        f"{zo:+.3f}   after '0': {zz:+.3f}",
    ]
    record_table("fig5_2", "Fig 5-2: residual-frequency and ISI effects",
                 lines)
    # (a) errors grow along the packet (phase accumulates, Fig 5-2a).
    assert quarters[-1] > quarters[0] + 0.05
    # (b) a '1' preceded by '1' sits higher than preceded by '0'
    # (Fig 5-2b), and symmetrically for '0'.
    assert oo > oz
    assert zz < zo
