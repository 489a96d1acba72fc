#!/usr/bin/env python3
"""Beyond two interferers (§4.5, Fig 5-9): three hidden senders.

Three mutually-hidden saturated senders stream to the closed-loop ZigZag
AP. Every collision carries all three packets; the AP stores
collisions, assembles a matched set of three from its buffer, finds a
decode order across the three captures with the greedy chunk scheduler
and unravels all three packets. Run as Monte-Carlo trials through the
runner's ``three_senders_stream`` scenario.

Run:  PYTHONPATH=src python examples/three_hidden_terminals.py

Same scenario from the command line:

    PYTHONPATH=src python -m repro run \
        examples/scenarios/three_senders_stream.toml
"""

from repro import MonteCarloRunner, ScenarioSpec


def main() -> None:
    spec = ScenarioSpec(kind="three_senders_stream", n_trials=4, seed=0,
                        payload_bits=320, n_packets=4,
                        params={"snr_db": 13.0})
    result = MonteCarloRunner().run(spec)

    print("three mutually-hidden senders, closed-loop ZigZag AP "
          f"({spec.n_trials} trials):\n")
    print(result.format_table())
    names = ("A", "B", "C")
    means = {n: result.mean(f"collision_throughput_{n}") for n in names}
    print("\nper-sender throughput (delivered packets per collision): "
          + "  ".join(f"{n}={v:.3f}" for n, v in means.items()))
    print(f"fair share would be 0.333 each; fairness ratio "
          f"{result.mean('fairness_ratio'):.2f}")
    print("(collisions where two senders draw the same backoff slot are "
          "genuinely undecodable and feed Fig 4-7's residual failure "
          "probability)")


if __name__ == "__main__":
    main()
