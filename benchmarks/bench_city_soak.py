"""Geometry-derived city soak: a 10-AP / 110-client block, sharded.

The ``[deployment]`` pipeline end to end at scale: one generated city
block (APs on a jittered grid, clients associated by pathloss, hidden
pairs derived from inter-client SNR), every populated cell run as its
own closed-loop session under both AP designs, one cell per worker
process through the Monte-Carlo pool. The block runs once per session
seed (:data:`SESSION_SEEDS`, same deployment). Reported numbers are
each seed's delivered totals and block throughput per design, the
derived sensing mix, and the per-cell resident-sample peak — the bound
that keeps a city-scale soak in constant memory per worker. On the same
air the ZigZag AP must deliver at least what the 802.11 AP delivers,
summed over the session seeds (§5.1d: it runs the standard decoder
first). Equivalent CLI for one seed::

    python -m repro run examples/scenarios/city_scale.toml

A second, smaller block runs through the coupled
:class:`~repro.link.MultiCellSession` coordinator as a cross-check that
real inter-cell waveform exchange stays live at soak settings.
"""

import os
import time

import numpy as np

from repro.runner.builders import build_city_session, get_deployment
from repro.runner.runner import MonteCarloRunner
from repro.runner.shm import find_leaked_arenas
from repro.runner.spec import ScenarioSpec

N_APS = 10
N_CLIENTS = 110
AREA_M = 120.0
SEED = 11
SESSION_SEEDS = range(11, 17)


def city_spec(n_trials: int, session_seed: int = SEED) -> ScenarioSpec:
    return ScenarioSpec.from_dict({
        "scenario": {"kind": "city_scale", "n_trials": n_trials,
                     "n_packets": 2, "payload_bits": 96,
                     "seed": session_seed},
        "deployment": {"n_aps": N_APS, "n_clients": N_CLIENTS,
                       "area_m": AREA_M, "seed": SEED,
                       "offered_load": 0.25, "saturated_fraction": 0.2},
    })


def test_city_soak(benchmark, record_table):
    deployment = get_deployment(city_spec(1))
    cells = deployment.cells()
    mix = deployment.sensing_mix()
    hidden_pairs = sum(len(plan.hidden_pairs) for plan in cells)
    associated = sum(plan.n_clients for plan in cells)
    # One trial per populated cell, one cell per worker process.
    runner = MonteCarloRunner(
        n_workers=min(len(cells), os.cpu_count() or 1))
    results = benchmark.pedantic(
        lambda: [runner.run(city_spec(len(cells), seed))
                 for seed in SESSION_SEEDS],
        rounds=1, iterations=1)
    assert not any(result.failures for result in results)
    designs = ("zigzag", "80211")
    rows = []
    for seed, result in zip(SESSION_SEEDS, results):
        trials = result.trials
        rows.append({
            "seed": seed,
            **{f"delivered_{tag}": int(sum(
                t.metrics[f"delivered_{tag}"] for t in trials))
               for tag in designs},
            **{f"throughput_{tag}": sum(
                t.metrics[f"throughput_{tag}"] for t in trials)
               for tag in designs},
            "peak": max(t.metrics["max_resident_samples"] for t in trials),
            "emitted": sum(t.extra["counters"]["zigzag"]["samples_emitted"]
                           for t in trials),
        })
    delivered = {tag: sum(row[f"delivered_{tag}"] for row in rows)
                 for tag in designs}
    lines = [
        f"block     : {N_APS} APs, {N_CLIENTS} clients over "
        f"{AREA_M:.0f} m x {AREA_M:.0f} m (seed {SEED})",
        f"derived   : {len(cells)} populated cells, "
        f"{associated} associated clients, "
        f"{hidden_pairs} hidden pairs "
        f"(mix: {', '.join(f'{c.value} {f:.0%}' for c, f in mix.items())})",
        "seed  zigzag delivered / tput  802.11 delivered / tput"
        "  max resident / emitted samples",
        *(f"{row['seed']:4d}  {row['delivered_zigzag']:16d} / "
          f"{row['throughput_zigzag']:.3f}  {row['delivered_80211']:16d} / "
          f"{row['throughput_80211']:.3f}  {int(row['peak']):12d} / "
          f"{int(row['emitted'])}"
          for row in rows),
        f"total {delivered['zigzag']:16d}          "
        f"{delivered['80211']:16d}",
        f"sharding  : {len(cells)} trials per session seed over "
        f"{runner.n_workers} workers (one cell per worker)",
        f"wall      : {sum(result.elapsed for result in results):.1f}s",
    ]
    record_table("city_soak", "Geometry-derived city block soak", lines)
    # The derivation must produce a real multi-cell hidden-terminal
    # block, and both designs must actually move packets through it.
    assert len(cells) >= 10 and associated >= 0.5 * N_CLIENTS
    assert hidden_pairs > 0
    assert delivered["zigzag"] > 0 and delivered["80211"] > 0
    # On the same air ZigZag delivers at least what 802.11 delivers:
    # it runs the same standard stage first (§5.1d).
    assert delivered["zigzag"] >= delivered["80211"]
    # Bounded memory: the largest resident-air peak in any cell is a
    # handful of packets, far below the block's emitted stream —
    # sessions never materialize the air they soak through.
    assert all(row["peak"] < 0.25 * row["emitted"] for row in rows)


def test_city_multicell_coupled(benchmark, record_table):
    """A smaller coupled block through both multi-cell coordinators.

    Runs the identical block twice — sequential stepping, then the
    process-parallel mode with one pinned cell worker per cell — and
    records both wall clocks plus the bit-identity check between their
    reports. The attainable parallel speedup is bounded by usable
    cores; on a single-core host the barrier overhead dominates.
    """

    def build(workers):
        spec = ScenarioSpec.from_dict({
            "scenario": {"kind": "city_multicell", "n_packets": 2,
                         "payload_bits": 96, "design": "zigzag",
                         "seed": SEED},
            "deployment": {"n_aps": 4, "n_clients": 24, "area_m": 80.0,
                           "seed": SEED, "coupled_workers": workers},
        })
        return build_city_session(spec, np.random.default_rng(SEED),
                                  "zigzag")

    def strip(rep):
        return (dict(rep.counters), rep.total_delivered,
                {ap: (r.flows, dict(r.counters), r.samples_elapsed,
                      r.timed_out) for ap, r in rep.cells.items()})

    report = benchmark.pedantic(build(1).run, rounds=1, iterations=1)
    t0 = time.perf_counter()
    parallel = build(0).run()          # 0 = one worker per cell
    parallel_s = time.perf_counter() - t0
    identical = strip(parallel) == strip(report)
    lines = [
        f"block     : 4 APs, 24 clients over 80 m x 80 m, "
        f"{len(report.cells)} populated cells",
        f"delivered : {report.total_delivered} packets, "
        f"block throughput={report.throughput():.3f}, "
        f"{report.timed_out_cells} timed-out cells",
        f"exchange  : {int(report.counters['windows'])} horizon windows, "
        f"{int(report.counters['injections'])} injections "
        f"({int(report.counters['samples_injected'])} samples live, "
        f"{int(report.counters['samples_clipped'])} clipped)",
        f"memory    : {int(report.max_resident_samples)} resident "
        "samples summed over cells",
        f"parallel  : {parallel.workers} cell workers in {parallel_s:.1f}s "
        f"vs {report.elapsed_s:.1f}s sequential "
        f"({report.elapsed_s / max(parallel_s, 1e-9):.2f}x on "
        f"{os.cpu_count()} cpus), reports "
        f"{'identical' if identical else 'DIVERGED'}, "
        f"degraded={parallel.degraded}",
    ]
    record_table("city_soak_coupled",
                 "Coupled multi-cell block (waveform exchange)", lines)
    assert report.total_delivered > 0
    assert report.timed_out_cells == 0
    assert report.counters["windows"] > 0
    assert identical
    assert find_leaked_arenas() == []
