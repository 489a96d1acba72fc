"""Ablation (§6a extension): convolutional coding over ZigZag at low SNR.

Compares packet delivery of uncoded ZigZag (CRC on raw bits) against the
coded pipeline (soft-decision Viterbi over the MRC-combined payload
symbols) in the regime where residual subtraction noise still causes
scattered bit errors. This is the first iteration of the paper's proposed
ZigZag↔decoder loop.

Ported to the Monte-Carlo runner: one trial builds and decodes one coded
collision pair; delivery rates are run-level means.
"""

import sys

import numpy as np

sys.path.insert(0, "tests")

from repro.phy.frame import HEADER_BITS, descramble_soft_bpsk
from repro.phy.coding.iterative import decode_coded_soft
from repro.receiver.frontend import StreamConfig
from repro.runner import MonteCarloRunner
from repro.runner.cache import cached_preamble, cached_shaper
from repro.zigzag.decoder import ZigZagMultiDecoder

N_TRIALS = 6
SNR_DB = 6.5
PAYLOAD_BITS = 120


def coding_trial(ctx):
    """Decode one coded collision pair; report per-pair delivery counts."""
    from test_coded_zigzag_integration import coded_collision_pair

    preamble = cached_preamble(32)
    shaper = cached_shaper()
    config = StreamConfig(preamble=preamble, shaper=shaper)
    decoder = ZigZagMultiDecoder(config)
    captures, frames, payloads, specs, placements = coded_collision_pair(
        ctx.rng, preamble, shaper, SNR_DB, payload_bits=PAYLOAD_BITS)
    outcome = decoder.decode([c.samples for c in captures], specs,
                             placements)
    uncoded_ok = coded_ok = total = 0
    for name, payload in payloads.items():
        total += 1
        result = outcome.results[name]
        if result.success:      # CRC over the raw (coded) bits
            uncoded_ok += 1
        soft = descramble_soft_bpsk(
            result.soft_symbols[len(preamble) + HEADER_BITS:],
            offset=HEADER_BITS)
        if np.array_equal(decode_coded_soft(soft, payload.size), payload):
            coded_ok += 1
    return {"uncoded_ok": uncoded_ok, "coded_ok": coded_ok,
            "total": total}


def run():
    trials = MonteCarloRunner().map(coding_trial, N_TRIALS, seed=5200)
    total = sum(t["total"] for t in trials)
    return (sum(t["uncoded_ok"] for t in trials) / total,
            sum(t["coded_ok"] for t in trials) / total)


def test_ablation_coding_over_zigzag(benchmark, record_table):
    uncoded, coded = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [
        f"packet delivery, uncoded (raw CRC)     : {uncoded:5.1%}",
        f"packet delivery, K=7 r=1/2 soft Viterbi: {coded:5.1%}",
        "(hidden pair at 6.5 dB — the regime where residual subtraction",
        " noise leaves scattered errors that the code removes, §6a)",
    ]
    record_table("ablation_coding", "Ablation: coding over ZigZag", lines)
    assert coded >= uncoded
    assert coded > 0.7
