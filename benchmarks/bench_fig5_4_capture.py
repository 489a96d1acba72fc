"""Fig 5-4: normalized throughput in scenarios with capture effects.

Hidden pair; Alice's SNR rises above Bob's (SINR = SNR_A - SNR_B sweeps
0..16 dB). Paper shapes: 802.11 starves Bob and captures Alice at high
SINR; the Collision-Free Scheduler stays flat at 0.5/0.5; ZigZag matches
the scheduler at SINR 0, exceeds total 1.0 in the SIC window (decoding
both packets from a *single* collision), and degrades Bob only at extreme
SINR where subtraction residuals swamp him.

Ported to the Monte-Carlo runner: one ``capture`` scenario per design,
swept over ``params.sinr_db``. Equivalent CLI::

    python -m repro sweep examples/scenarios/capture_asymmetry.toml \
        --param params.sinr_db=0:16:4
"""

from repro.runner import MonteCarloRunner, ScenarioSpec
from repro.testbed.experiment import Design

SINRS = (0, 4, 8, 12, 16)

SPEC = ScenarioSpec(kind="capture", n_trials=3, seed=0,
                    payload_bits=240, n_packets=6,
                    params={"snr_b_db": 9.0})


def sweep():
    runner = MonteCarloRunner()
    table = {}
    for design in Design:
        spec = SPEC.with_override("design", design.value)
        points = runner.sweep(spec, "params.sinr_db",
                              [float(s) for s in SINRS])
        table[design.value] = {
            sinr: {key: points.result_at(float(sinr)).mean(key)
                   for key in ("A", "B", "total")}
            for sinr in SINRS
        }
    return table


def test_fig5_4_capture_throughput(benchmark, record_table):
    table = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = [f"{'SINR':>5} | " + " | ".join(
        f"{d:>20}" for d in table)]
    lines.append(" " * 5 + " | " + " | ".join(
        f"{'A':>6} {'B':>6} {'tot':>6}" for _ in table))
    for sinr in SINRS:
        cells = []
        for design in table:
            row = table[design][sinr]
            cells.append(f"{row['A']:6.2f} {row['B']:6.2f} "
                         f"{row['total']:6.2f}")
        lines.append(f"{sinr:5d} | " + " | ".join(cells))
    record_table("fig5_4", "Fig 5-4: throughput vs SINR under capture",
                 lines)

    zigzag = table[Design.ZIGZAG.value]
    e80211 = table[Design.CURRENT_80211.value]
    sched = table[Design.SCHEDULER.value]
    # 802.11 starves Bob under capture (Fig 5-4b).
    assert all(e80211[s]["B"] <= 0.1 for s in SINRS if s >= 8)
    # Scheduler is flat and fair.
    assert all(abs(sched[s]["total"] - 1.0) < 0.15 for s in SINRS)
    # ZigZag beats or matches both baselines in total throughput at every
    # point (Fig 5-4c), and exceeds 1.0 somewhere in the SIC window.
    for s in SINRS:
        assert zigzag[s]["total"] >= e80211[s]["total"] - 0.1
        assert zigzag[s]["total"] >= 0.75
    assert max(zigzag[s]["total"] for s in SINRS) > 1.0
    # ZigZag keeps serving Bob at moderate SINR (fairness, Fig 5-4b).
    assert all(zigzag[s]["B"] > 0.2 for s in SINRS if s <= 12)
