"""Streaming closed-loop AP soak: sustained packets/sec, bounded memory.

Unlike the figure benchmarks this one measures the *system*: a three-
client session (hidden pair A:B plus a sensing client C) over continuous
air, with burst segmentation, collision-buffer matching and synchronous
ACK feedback running end to end. Reported numbers are AP-side delivered
packets per wall-clock second and emitted samples per second (printed to
the log; the tracked table keeps the simulated outputs), plus the
head-to-head delivered totals of the ZigZag AP and the current-802.11 AP
on identically-seeded air. Equivalent CLI::

    python -m repro run examples/scenarios/ap_stream.toml
"""

import numpy as np

from repro.link import LinkSession, SessionConfig, StreamClient, Topology

N_PACKETS = 10
SEED = 3

# Idle-heavy soak point: many clients at a tiny per-client offered load,
# so nearly all simulated air is silence, which the session core skips
# symbolically instead of synthesizing.
IDLE_CLIENTS = 12
IDLE_LOAD = 0.0005
IDLE_PACKETS = 2
IDLE_MAX_SAMPLES = 40_000_000
# Bound on synthesized samples (45,056 measured): the air around the
# 24 packets' bursts, a few chunks each, never the idle gaps.
IDLE_MAX_EMITTED = 65_536


def build(design: str) -> LinkSession:
    clients = [
        StreamClient("A", 1, 12.0, 3e-3),
        StreamClient("B", 2, 12.0, -2e-3),
        StreamClient("C", 3, 11.0, 1e-3),
    ]
    config = SessionConfig(n_packets=N_PACKETS, payload_bits=200,
                           topology=Topology.explicit((("A", "B"),)))
    return LinkSession(config, clients, design=design,
                       rng=np.random.default_rng(SEED))


def build_idle() -> LinkSession:
    names = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    clients = [StreamClient(names[i], i + 1, 12.0, (i - 5) * 5e-4,
                            offered_load=IDLE_LOAD)
               for i in range(IDLE_CLIENTS)]
    config = SessionConfig(n_packets=IDLE_PACKETS, payload_bits=200,
                           topology=Topology.explicit((("A", "B"),)),
                           max_samples=IDLE_MAX_SAMPLES)
    return LinkSession(config, clients, design="zigzag",
                       rng=np.random.default_rng(SEED))


def soak():
    return {design: build(design).run() for design in ("zigzag", "802.11")}


def idle_soak():
    return build_idle().run()


def test_stream_soak(benchmark, record_table):
    reports = benchmark.pedantic(soak, rounds=1, iterations=1)
    zz, std = reports["zigzag"], reports["802.11"]
    wall = max(zz.elapsed_s, 1e-9)
    pps = zz.total_delivered / wall
    sps = zz.counters["samples_emitted"] / wall
    lines = [
        f"clients=3 (hidden pair A:B), packets/client={N_PACKETS}",
        f"zigzag AP : delivered={zz.total_delivered:3d}  "
        f"throughput={zz.throughput():.3f}  "
        f"matches={zz.receiver_stats.zigzag_matches}",
        f"802.11 AP : delivered={std.total_delivered:3d}  "
        f"throughput={std.throughput():.3f}",
        f"memory    : max resident "
        f"{int(zz.counters['max_resident_samples'])} samples vs "
        f"{int(zz.counters['samples_emitted'])} emitted "
        "(stream never materialized)",
    ]
    record_table("stream_soak", "Streaming closed-loop AP soak", lines,
                 host=[f"sustained {pps:.1f} delivered pkt/s, "
                       f"{sps / 1e6:.2f} Msample/s of air "
                       f"({wall:.2f}s wall)"])
    # The closed loop must actually engage and win on hidden-pair air.
    assert zz.receiver_stats.zigzag_matches > 0
    assert zz.total_delivered > std.total_delivered
    # Bounded memory: resident samples stay far below the emitted stream.
    assert zz.counters["max_resident_samples"] \
        < 0.25 * zz.counters["samples_emitted"]


def test_idle_stream_skips_silence(benchmark, record_table):
    """On idle-heavy air the session's work scales with *burst*
    samples, not simulated samples: almost all of the air is skipped
    symbolically and only the bursts' neighbourhood is synthesized."""
    report = benchmark.pedantic(idle_soak, rounds=1, iterations=1)
    total = report.samples_elapsed
    skipped = report.counters["samples_skipped"]
    emitted = report.counters["samples_emitted"]
    lines = [
        f"clients={IDLE_CLIENTS} (hidden pair A:B), "
        f"offered load {IDLE_LOAD}/client, "
        f"packets/client={IDLE_PACKETS}",
        f"delivered : {report.total_delivered}",
        f"air       : {total / 1e6:.1f} Msamples "
        f"({100 * skipped / max(total, 1):.1f}% skipped symbolically, "
        f"{emitted / 1e3:.0f} ksamples synthesized)",
    ]
    record_table("stream_soak_idle",
                 "Idle-heavy soak: idle air skipped symbolically", lines,
                 host=[f"{report.elapsed_s:.2f}s wall"])
    assert report.total_delivered == IDLE_CLIENTS * IDLE_PACKETS
    assert not report.timed_out
    assert skipped >= 0.99 * total
    assert emitted <= IDLE_MAX_EMITTED
