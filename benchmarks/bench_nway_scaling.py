"""k-way collision-resolution scaling: throughput vs clique size (§4.5).

One hidden clique of k ∈ {2, 3, 4} mutually-hidden saturated clients
streams through the closed-loop ZigZag AP. Every collision then carries
all k packets, and resolving a set needs k matched collisions assembled
from the buffer's match graph — the paper's N-collision generalization
running online. Reported per k: wall-clock normalized throughput,
collision-airtime throughput (the Fig 5-9 basis: delivered packets per
detected-collision airtime), and the k-way receiver counters. Equivalent
CLI::

    python -m repro sweep examples/scenarios/three_senders_stream.toml \
        --param n_senders=2:4 --metrics collision_throughput_total
"""

import numpy as np

from repro.link import LinkSession, SessionConfig, StreamClient, Topology

N_PACKETS = 4
SNR_DB = 13.0
SEEDS = (0, 1, 2)
FREQS = (3e-3, -2e-3, 1e-3, -3e-3)
NAMES = "ABCD"


def build(k: int, seed: int) -> LinkSession:
    clients = [StreamClient(NAMES[i], i + 1, SNR_DB, FREQS[i])
               for i in range(k)]
    config = SessionConfig(
        n_packets=N_PACKETS, payload_bits=200,
        topology=Topology.explicit(hidden_cliques=(tuple(NAMES[:k]),)))
    return LinkSession(config, clients, design="zigzag",
                       rng=np.random.default_rng(seed))


def run_point(k: int) -> dict:
    tput, coll_tput, matches, attempts, multiway = [], [], 0, 0, 0
    for seed in SEEDS:
        report = build(k, seed).run()
        rx = report.receiver_stats
        tput.append(report.throughput())
        coll_tput.append(report.total_delivered
                         / max(rx.collisions_detected, 1))
        matches += rx.zigzag_matches
        attempts += rx.match_attempts
        multiway += rx.multiway_matches
    return {
        "k": k,
        "throughput": float(np.mean(tput)),
        "collision_throughput": float(np.mean(coll_tput)),
        "zigzag_matches": matches,
        "match_attempts": attempts,
        "multiway_matches": multiway,
    }


def sweep() -> list[dict]:
    return [run_point(k) for k in (2, 3, 4)]


def test_nway_scaling(benchmark, record_table):
    points = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = [f"clique of k mutually-hidden saturated clients, "
             f"snr={SNR_DB:.0f} dB, {N_PACKETS} packets/client, "
             f"{len(SEEDS)} seeds",
             " k   tput(wall)  tput(collision)  zz-matches  k-way"]
    for p in points:
        lines.append(
            f" {p['k']}      {p['throughput']:.3f}        "
            f"{p['collision_throughput']:.3f}          "
            f"{p['zigzag_matches']:3d}      {p['multiway_matches']:3d}")
    record_table("nway_scaling", "Throughput vs k-way collision size",
                 lines)
    by_k = {p["k"]: p for p in points}
    # Every clique size must actually resolve collisions through the
    # matcher; k >= 3 must do so via multi-capture sets.
    for k in (2, 3, 4):
        assert by_k[k]["zigzag_matches"] > 0, f"k={k} never matched"
    assert by_k[3]["multiway_matches"] > 0
    assert by_k[4]["multiway_matches"] > 0
    # Resolving k packets takes k collisions, so collision-airtime
    # throughput stays within a factor-ish of 1 rather than collapsing;
    # the wall-clock number may degrade with k (more retransmissions).
    assert by_k[2]["collision_throughput"] > 0.3
    assert by_k[3]["collision_throughput"] > 0.15
