#!/usr/bin/env python3
"""A ZigZag access point serving hidden terminals, end to end.

Two clients hidden from each other stream to one AP over continuous air
through the runner's ``ap_stream`` scenario. The §5.1(d) AP
standard-decodes what it can, stores each unmatched collision, and
resolves the pair when the retransmitted collision arrives; ACKs and
retransmissions close the loop. Each trial runs the same scenario under
the ZigZag AP and a current-802.11 AP (common random numbers), so the
two designs are measured on the same air.

Run:  PYTHONPATH=src python examples/hidden_terminal_ap.py
"""

from repro import MonteCarloRunner, ScenarioSpec


def main() -> None:
    spec = ScenarioSpec(kind="ap_stream", n_trials=6, seed=3,
                        payload_bits=320, n_packets=4,
                        params={"n_clients": 2, "snr_db": 13.0,
                                "hidden_pairs": "A:B"})
    result = MonteCarloRunner().run(spec)
    offered = 2 * spec.n_packets

    print("ZigZag AP (§5.1d flow control) vs current 802.11, two hidden "
          f"clients, {spec.n_trials} closed-loop trials:\n")
    for trial in result.trials:
        zigzag = int(trial.metrics["delivered_zigzag"])
        base = int(trial.metrics["delivered_80211"])
        print(f"  trial {trial.index}: zigzag delivered {zigzag}/{offered}"
              f" packets, current-802.11 AP delivered {base}/{offered}")
    mean, lo, hi = result.ci("delivered_zigzag")
    base_mean = result.mean("delivered_80211")
    print(f"\nmean packets delivered per trial: "
          f"zigzag {mean:.2f} (95% CI [{lo:.2f}, {hi:.2f}]) "
          f"vs 802.11 {base_mean:.2f}")
    assert mean > base_mean, "ZigZag should beat the 802.11 baseline"


if __name__ == "__main__":
    main()
