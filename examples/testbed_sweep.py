#!/usr/bin/env python3
"""Mini testbed campaign: random sender pairs on the 14-node layout.

A shrunken version of §5.6: each runner trial samples one sender pair
from the 14-node testbed (hidden, partial, or perfectly-sensing) and
runs it under Current 802.11 and ZigZag; the per-pair detail rides in
each trial's ``extra`` payload (exactly how the Fig 5-5..5-8 benchmarks
consume this scenario).

Run:  PYTHONPATH=src python examples/testbed_sweep.py
"""

import numpy as np

from repro import MonteCarloRunner, ScenarioSpec
from repro.testbed.topology import default_testbed


def main() -> None:
    testbed = default_testbed(seed=7)
    mix = testbed.sensing_mix()
    print("14-node testbed sensing mix:",
          {k.value: f"{v:.0%}" for k, v in mix.items()},
          "(paper: 80% / 8% / 12%)\n")

    spec = ScenarioSpec(kind="testbed_pair", n_trials=6, seed=13,
                        payload_bits=240, n_packets=5,
                        params={"testbed_seed": 7})
    result = MonteCarloRunner().run(spec)

    print(f"{'pair':>10} {'class':>8} | {'802.11 tput/loss':>17} |"
          f" {'zigzag tput/loss':>17}")
    for trial in result.trials:
        a, b, _ap = trial.extra["pair"]
        cells = []
        for tag in ("80211", "zigzag"):
            tput = trial.metrics[f"throughput_{tag}"]
            loss = float(np.mean(trial.extra[tag]["loss"]))
            cells.append(f"{tput:8.2f} /{loss:6.2f}")
        print(f"{f'{a}->{b}':>10} {trial.extra['class']:>8} | "
              + " | ".join(cells))

    gain = (result.mean("throughput_zigzag")
            / max(result.mean("throughput_80211"), 1e-9))
    print(f"\naggregate: 802.11 {result.mean('throughput_80211'):.2f}, "
          f"zigzag {result.mean('throughput_zigzag'):.2f} "
          f"({gain:.2f}x; paper's testbed average gain: 1.31x)")


if __name__ == "__main__":
    main()
