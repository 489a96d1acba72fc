"""Figs 5-5 .. 5-8: whole-testbed throughput / loss comparison.

One campaign powers all four figures, as in the paper's §5.6: random
sender pairs (with a reachable AP) are drawn from the 14-node testbed —
most sense each other perfectly, some partially, some not at all — and
each pair runs under Current 802.11 and ZigZag:

- Fig 5-5: CDF of aggregate pair throughput (paper: +31% average);
- Fig 5-6: CDF of per-flow loss rate (paper: 18.9% -> 0.2%);
- Fig 5-7: per-flow throughput scatter (ZigZag helps, never hurts);
- Fig 5-8: loss CDF over hidden/partial pairs only (82.3% -> 0.7%).

Ported to the Monte-Carlo runner: the campaign is N_PAIRS trials of the
``testbed_pair`` scenario (each trial samples one pair and runs both
designs); per-flow detail rides in each trial's ``extra`` payload.
"""

import numpy as np
import pytest

from repro.runner import MonteCarloRunner, ScenarioSpec
from repro.testbed.topology import SensingClass
from repro.utils.stats import empirical_cdf

N_PAIRS = 12

SPEC = ScenarioSpec(kind="testbed_pair", n_trials=N_PAIRS, seed=13,
                    payload_bits=240, n_packets=6,
                    params={"testbed_seed": 7})


def run_campaign():
    result = MonteCarloRunner().run(SPEC)
    records = []
    for trial in result.trials:
        entry = {"pair": trial.extra["pair"], "class": trial.extra["class"]}
        entry["802.11"] = {
            "throughput": trial.metrics["throughput_80211"],
            **trial.extra["80211"],
        }
        entry["zigzag"] = {
            "throughput": trial.metrics["throughput_zigzag"],
            **trial.extra["zigzag"],
        }
        records.append(entry)
    return records


@pytest.fixture(scope="module")
def campaign():
    return run_campaign()


def test_fig5_5_throughput_cdf(benchmark, record_table, campaign):
    records = benchmark.pedantic(lambda: campaign, rounds=1, iterations=1)
    agg = {d: [r[d]["throughput"] for r in records]
           for d in ("802.11", "zigzag")}
    lines = []
    for design, values in agg.items():
        xs, fs = empirical_cdf(values)
        lines.append(f"{design:>8} mean={np.mean(values):.3f}  CDF: "
                     + " ".join(f"({x:.2f},{f:.2f})"
                                for x, f in zip(xs, fs)))
    gain = np.mean(agg["zigzag"]) / max(np.mean(agg["802.11"]), 1e-9)
    lines.append(f"average throughput gain: {gain:.2f}x"
                 "  (paper: 1.31x)")
    record_table("fig5_5", "Fig 5-5: testbed aggregate throughput CDF",
                 lines)
    assert np.mean(agg["zigzag"]) > np.mean(agg["802.11"])


def test_fig5_6_loss_cdf(benchmark, record_table, campaign):
    records = benchmark.pedantic(lambda: campaign, rounds=1, iterations=1)
    losses = {d: [loss for r in records for loss in r[d]["loss"]]
              for d in ("802.11", "zigzag")}
    lines = []
    for design, values in losses.items():
        lines.append(f"{design:>8} mean loss={np.mean(values):.3f}  "
                     f"median={np.median(values):.3f}")
    lines.append("(paper: 18.9% -> 0.2%)")
    record_table("fig5_6", "Fig 5-6: testbed loss-rate CDF", lines)
    assert np.mean(losses["zigzag"]) < np.mean(losses["802.11"])
    assert np.mean(losses["zigzag"]) < 0.15


def test_fig5_7_scatter_never_hurts(benchmark, record_table, campaign):
    records = benchmark.pedantic(lambda: campaign, rounds=1, iterations=1)
    points = []
    for r in records:
        for flow in ("A", "B"):
            points.append((r["802.11"]["flow_throughputs"][flow],
                           r["zigzag"]["flow_throughputs"][flow]))
    lines = [f"  802.11={x:.2f}  zigzag={y:.2f}" for x, y in points]
    hurt = sum(1 for x, y in points if y < x - 0.15)
    lines.append(f"flows hurt by ZigZag (>0.15 drop): {hurt}/{len(points)}")
    record_table("fig5_7", "Fig 5-7: per-flow throughput scatter", lines)
    # Paper: ZigZag helps hidden terminals and never hurts (beyond noise).
    assert hurt <= max(1, len(points) // 10)


def test_fig5_8_hidden_terminal_loss(benchmark, record_table, campaign):
    records = benchmark.pedantic(lambda: campaign, rounds=1, iterations=1)
    hidden = [r for r in records
              if r["class"] != SensingClass.PERFECT.value]
    if not hidden:
        pytest.skip("campaign sampled no hidden/partial pairs")
    losses = {d: [loss for r in hidden for loss in r[d]["loss"]]
              for d in ("802.11", "zigzag")}
    lines = [
        f"hidden/partial pairs sampled : {len(hidden)}/{len(records)}",
        f"802.11 mean loss             : {np.mean(losses['802.11']):.3f}"
        "   (paper: 0.823)",
        f"zigzag mean loss             : {np.mean(losses['zigzag']):.3f}"
        "   (paper: 0.007)",
    ]
    record_table("fig5_8", "Fig 5-8: loss at hidden terminals", lines)
    # Paper shape: hidden/partial pairs lose heavily under 802.11 and
    # almost nothing under ZigZag. (Partial pairs dilute the 802.11 mean
    # relative to the paper's mostly-full-hidden sample.)
    assert np.mean(losses["802.11"]) > 0.25
    assert np.mean(losses["zigzag"]) < 0.25
    assert np.mean(losses["zigzag"]) < 0.5 * np.mean(losses["802.11"])
