"""Fig 5-9: three mutually-hidden senders under a ZigZag AP.

Three saturated senders form one hidden clique and stream to the
closed-loop ZigZag AP (``three_senders_stream`` scenario): every
collision carries all three packets, the AP assembles matched collision
sets from its buffer and decodes them with the k-way engine (§4.5).
Throughput is delivered packets per detected collision, the figure's
normalization. Paper shape: all three senders get a fair throughput
near one third of the medium rate.

Equivalent CLI::

    python -m repro run examples/scenarios/three_senders_stream.toml \
        --set payload_bits=240 --set n_packets=5
"""

import numpy as np

from repro.runner import MonteCarloRunner, ScenarioSpec

SPEC = ScenarioSpec(kind="three_senders_stream", n_trials=3, seed=0,
                    payload_bits=240, n_packets=5,
                    params={"snr_db": 13.0})


def sweep():
    result = MonteCarloRunner().run(SPEC)
    return {name: result.mean(f"collision_throughput_{name}")
            for name in ("A", "B", "C")}


def test_fig5_9_three_hidden_terminals(benchmark, record_table):
    throughput = benchmark.pedantic(sweep, rounds=1, iterations=1)
    values = list(throughput.values())
    lines = [
        "per-sender normalized throughput: "
        + "  ".join(f"{n}={v:.3f}" for n, v in throughput.items()),
        f"fair share would be 0.333; mean = {np.mean(values):.3f}",
        f"max/min fairness ratio          : "
        f"{max(values) / max(min(values), 1e-9):.2f}",
    ]
    record_table("fig5_9", "Fig 5-9: three hidden terminals", lines)
    # Paper shape: substantial and *fair* throughput for all three.
    assert min(values) > 0.08
    assert max(values) / max(min(values), 1e-9) < 2.5
