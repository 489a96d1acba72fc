"""Closed-loop regression fixture: fixed-seed sessions pinned exactly.

The ``.npz`` golden vectors pin offline decodes; this fixture pins what
the closed loop makes of them. It runs short fixed-seed sessions under
both AP designs:

- ``hidden_stream``: a single cell of three saturated clients at 12, 12
  and 11 dB, A and B hidden from each other and C sensing both, 200-bit
  payloads (the shape of the benchmark's ``hidden_stream`` workload);
- ``clique``: the same three clients mutually hidden, so k = 3
  collision sets (§4.5) form and decode;
- ``default7``: the same clients with no ``topology=`` argument, so
  the session's default (probabilistic, p = 0) sense draw runs;
- ``probabilistic7``: every pair senses with probability 0.5, drawn
  once per session;
- ``spec_clique7``: an ``ap_stream``-shaped spec with
  ``params.hidden_cliques = "A:B:C"``, built through
  :func:`~repro.runner.builders.build_stream_session`;
- ``idle_load7``: the hidden-stream cell with Poisson arrivals at a
  2% offered load per client, so most of the air is idle: pins the
  arrival path and the split of air into skipped and synthesized
  samples;
- ``block3``: a coupled 3-AP ``city_multicell`` block, stepped
  sequentially.

and records every session's flows (sent, delivered, airtime, per-packet
BER), counters and receiver stats in ``closed_loop.json``. The companion
test (``tests/test_closed_loop_golden.py``) re-runs them and asserts the
summaries match exactly — a receive-path refactor that claims identical
output must leave every number here untouched.

Regenerate (only after an *intentional* behavior change)::

    PYTHONPATH=src python tests/golden/closed_loop.py
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import sys
from functools import partial

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2] / "src"))

from repro.link import (  # noqa: E402
    LinkSession,
    SessionConfig,
    StreamClient,
    Topology,
)
from repro.runner.builders import (  # noqa: E402
    build_city_session,
    build_stream_session,
)
from repro.runner.cache import cached_preamble, cached_shaper  # noqa: E402
from repro.runner.spec import ScenarioSpec  # noqa: E402

FIXTURE = pathlib.Path(__file__).resolve().parent / "closed_loop.json"
DESIGNS = ("zigzag", "802.11")

STREAM_CLIENTS = (("A", 12.0), ("B", 12.0), ("C", 11.0))
STREAM_PACKETS = 6
IDLE_LOAD = 0.02
BLOCK_SEED = 5


def _plain(value):
    """JSON-safe form, so a fresh run compares equal to the loaded file."""
    return json.loads(json.dumps(value, default=lambda v: v.item()))


def summarize(report) -> dict:
    """Everything a session report says about the simulated outcome
    (wall time excluded)."""
    return _plain({
        "samples_elapsed": report.samples_elapsed,
        "timed_out": report.timed_out,
        "flows": {name: [f.sent, f.delivered, f.airtime_slots, f.bers]
                  for name, f in sorted(report.flows.items())},
        "counters": dict(sorted(report.counters.items())),
        "receiver_stats": dataclasses.asdict(report.receiver_stats),
    })


def stream_session(seed: int, topology: Topology | None, design: str,
                   offered_load: float | None = None) -> LinkSession:
    """A hand-built session; *topology* None leaves the config default,
    *offered_load* None keeps the clients saturated."""
    rng = np.random.default_rng(seed)
    clients = [StreamClient(name=name, src=i + 1, snr_db=snr,
                            freq_offset=float(rng.uniform(-4e-3, 4e-3)),
                            offered_load=offered_load)
               for i, (name, snr) in enumerate(STREAM_CLIENTS)]
    extra = {} if topology is None else {"topology": topology}
    config = SessionConfig(payload_bits=200, n_packets=STREAM_PACKETS,
                           **extra)
    return LinkSession(config, clients, design=design, rng=rng,
                       preamble=cached_preamble(config.preamble_length),
                       shaper=cached_shaper())


def spec_session(seed: int, design: str) -> LinkSession:
    """The same three clients declared the ``ap_stream`` way, mutually
    hidden through ``params.hidden_cliques``."""
    spec = ScenarioSpec.from_dict({
        "scenario": {"kind": "ap_stream", "payload_bits": 200,
                     "n_packets": STREAM_PACKETS},
        "sender": [{"name": name, "snr_db": snr}
                   for name, snr in STREAM_CLIENTS],
        "params": {"hidden_cliques": "A:B:C"},
    })
    return build_stream_session(spec, np.random.default_rng(seed), design)


# case name -> session factory taking the AP design
STREAM_CASES = {
    "hidden_stream7": partial(stream_session, 7,
                              Topology.explicit((("A", "B"),))),
    "hidden_stream8": partial(stream_session, 8,
                              Topology.explicit((("A", "B"),))),
    "clique7": partial(stream_session, 7,
                       Topology.explicit(None, (("A", "B", "C"),))),
    "default7": partial(stream_session, 7, None),
    "probabilistic7": partial(stream_session, 7,
                              Topology.probabilistic(0.5)),
    "spec_clique7": partial(spec_session, 7),
    "idle_load7": partial(stream_session, 7,
                          Topology.explicit((("A", "B"),)),
                          offered_load=IDLE_LOAD),
}


def block_spec() -> ScenarioSpec:
    return ScenarioSpec.from_dict({
        "scenario": {"kind": "city_multicell", "n_packets": 2,
                     "payload_bits": 96},
        "deployment": {"n_aps": 3, "n_clients": 12, "area_m": 70.0,
                       "seed": 11, "offered_load": 0.25,
                       "saturated_fraction": 0.2, "coupled_workers": 1},
    })


def run_all() -> dict:
    """Every case's summary, keyed ``case/design``."""
    out = {}
    for design in DESIGNS:
        for name, make_session in STREAM_CASES.items():
            report = make_session(design).run()
            out[f"{name}/{design}"] = summarize(report)
        city = build_city_session(block_spec(),
                                  np.random.default_rng(BLOCK_SEED), design)
        report = city.run()
        out[f"block3/{design}"] = _plain({
            "counters": dict(sorted(report.counters.items())),
            "total_delivered": report.total_delivered,
            "cells": {str(ap): summarize(cell)
                      for ap, cell in sorted(report.cells.items())},
        })
    return out


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(run_all(), indent=1, sort_keys=True)
                       + "\n")
    print(f"wrote {FIXTURE}")
