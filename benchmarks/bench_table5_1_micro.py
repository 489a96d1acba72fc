"""Table 5.1: micro-evaluation of ZigZag's components.

Three rows, as in the paper:
- collision detector false positives / false negatives (β = 0.42);
- decode success with/without frequency & phase tracking, by packet size;
- decode success with/without the ISI (equalizer) filter, by SNR.

Ported to the Monte-Carlo runner: each cell's trial loop goes through
``MonteCarloRunner.map`` (module-level trial functions + ``partial``).
"""

import functools

import numpy as np

from repro.phy.channel import ChannelParams
from repro.phy.frame import Frame
from repro.phy.isi import default_isi_taps
from repro.phy.medium import Transmission, synthesize
from repro.receiver.decoder import StandardDecoder
from repro.runner import MonteCarloRunner
from repro.utils.bits import random_bits
from repro.zigzag.detect import CollisionDetector

BETAS = (0.42, 0.5, 0.55, 0.6)


def _params(rng, snr_db, freq, isi=0.0):
    return ChannelParams(
        gain=np.sqrt(10 ** (snr_db / 10))
        * np.exp(1j * rng.uniform(0, 2 * np.pi)),
        freq_offset=freq,
        sampling_offset=float(rng.uniform(0, 1)),
        phase_noise_std=1e-3,
        isi_taps=tuple(default_isi_taps(isi)) if isi else None)


def detector_trial(ctx):
    """Row 1, one trial: FP/FN flags for every β on one clean+collision
    pair drawn at a random SNR in 6..20 dB (§5.3a)."""
    rng = ctx.rng
    snr = rng.uniform(6, 20)
    freqs = [float(rng.uniform(-4e-3, 4e-3)) for _ in range(2)]
    f1 = Frame.make(random_bits(300, rng), src=1)
    tx = Transmission.from_symbols(f1.symbols, _params(rng, snr, freqs[0]),
                                   0, "a")
    clean = synthesize([tx], 1.0, rng, leading=8, tail=30)
    f2 = Frame.make(random_bits(300, rng), src=2)
    offset = int(rng.integers(4, 14)) * 20
    collision = synthesize(
        [Transmission.from_symbols(f1.symbols, _params(rng, snr, freqs[0]),
                                   0, "a"),
         Transmission.from_symbols(f2.symbols, _params(rng, snr, freqs[1]),
                                   offset, "b")],
        1.0, rng, leading=8, tail=30)
    metrics = {}
    for beta in BETAS:
        det = CollisionDetector(beta=beta)
        metrics[f"fp_{beta}"] = float(
            det.inspect(clean.samples, freqs).is_collision)
        metrics[f"fn_{beta}"] = float(
            not det.inspect(collision.samples, freqs).is_collision)
    return metrics


def detector_rates(runner, n_each=40, seed=0):
    """Row 1: FP/FN trade-off across β, as in §5.3(a).

    The paper: "Higher values eliminate false positives but make ZigZag
    miss some collisions, whereas lower values trigger collision-detection
    on clean packets." We reproduce the whole trade-off curve; with a
    32-symbol preamble the discrimination is fundamentally extreme-value
    limited, so our knee sits at higher FP than the paper's testbed
    (which is harmless: FPs only cost compute, §5.3a)."""
    trials = runner.map(detector_trial, n_each, seed=seed)
    return {beta: (float(np.mean([t[f"fp_{beta}"] for t in trials])),
                   float(np.mean([t[f"fn_{beta}"] for t in trials])))
            for beta in BETAS}


def tracking_trial(ctx, payload_bits=400, track=True):
    """Row 2, one trial: does a long packet survive without tracking?"""
    rng = ctx.rng
    frame = Frame.make(random_bits(payload_bits, rng), src=1)
    freq = float(rng.uniform(-4e-3, 4e-3))
    tx = Transmission.from_symbols(frame.symbols, _params(rng, 14.0, freq),
                                   0, "a")
    cap = synthesize([tx], 1.0, rng, leading=8, tail=30)
    # The decoder works from the (slightly stale) client-table coarse
    # estimate; tracking must absorb the residual.
    decoder = StandardDecoder(coarse_freq=freq + 1.2e-4, track_phase=track)
    ok = decoder.decode(cap.samples).ber_against(frame.body_bits) < 1e-3
    return float(ok)


def isi_trial(ctx, snr_db=10.0, use_equalizer=True):
    """Row 3, one trial: does the ISI filter save a low-SNR packet?"""
    rng = ctx.rng
    frame = Frame.make(random_bits(400, rng), src=1)
    freq = float(rng.uniform(-4e-3, 4e-3))
    tx = Transmission.from_symbols(
        frame.symbols, _params(rng, snr_db, freq, isi=0.45),
        0, "a")
    cap = synthesize([tx], 1.0, rng, leading=8, tail=30)
    decoder = StandardDecoder(coarse_freq=freq, use_equalizer=use_equalizer)
    ok = decoder.decode(cap.samples).ber_against(frame.body_bits) < 1e-3
    return float(ok)


def run_table():
    runner = MonteCarloRunner()
    rows = {
        "detector": detector_rates(runner),
        "tracking": {
            (size, track): float(np.mean(runner.map(
                functools.partial(tracking_trial, payload_bits=size,
                                  track=track), 20, seed=1)))
            for size in (400, 1200) for track in (True, False)
        },
        "isi": {
            (snr, eq): float(np.mean(runner.map(
                functools.partial(isi_trial, snr_db=snr,
                                  use_equalizer=eq), 20, seed=2)))
            for snr in (10.0, 16.0) for eq in (True, False)
        },
    }
    return rows


def test_table5_1_micro_evaluation(benchmark, record_table):
    rows = benchmark.pedantic(run_table, rounds=1, iterations=1)
    det = rows["detector"]
    t = rows["tracking"]
    i = rows["isi"]
    lines = ["Correlation detector FP/FN vs beta (paper @beta=0.65: "
             "3.1%/1.9%):"]
    for beta, (fp, fn) in det.items():
        lines.append(f"    beta={beta:.2f}: FP {fp:5.1%}  FN {fn:5.1%}")
    lines += [
        "Freq & phase tracking : "
        f"400b with {t[(400, True)]:5.1%} / without {t[(400, False)]:5.1%}"
        f" | 1200b with {t[(1200, True)]:5.1%}"
        f" / without {t[(1200, False)]:5.1%}"
        "   (paper: 99.6%/89% and 98.2%/0%)",
        "ISI filter            : "
        f"10dB with {i[(10.0, True)]:5.1%} / without {i[(10.0, False)]:5.1%}"
        f" | 16dB with {i[(16.0, True)]:5.1%}"
        f" / without {i[(16.0, False)]:5.1%}"
        "   (paper @10/20dB: 99.6%/47% and 100%/96%)",
    ]
    record_table("table5_1", "Table 5.1: micro-evaluation", lines)
    betas = sorted(det)
    # The §5.3(a) trade-off: FP falls and FN rises as beta grows.
    assert det[betas[-1]][0] <= det[betas[0]][0]
    assert det[betas[0]][1] <= det[betas[-1]][1] + 0.05
    # Detection itself works: at the liberal beta, collisions are found.
    assert det[betas[0]][1] < 0.15
    assert t[(1200, True)] > 0.9
    assert t[(1200, False)] < 0.4       # long packets die w/o tracking
    assert t[(400, False)] >= t[(1200, False)]
    assert i[(10.0, True)] > i[(10.0, False)]  # filter matters at low SNR
    assert i[(16.0, True)] > 0.9
