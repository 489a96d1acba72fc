"""Scenario registry: mapping a spec's ``kind`` to a trial function.

A *scenario* is a function ``fn(spec, ctx) -> dict | TrialResult`` that
runs ONE Monte-Carlo trial: build the collision(s) for this trial from
``ctx.rng`` (or hand ``ctx.seed`` to a legacy integer-seeded driver), run
the design under test, and return scalar metrics (plus optional
:class:`~repro.testbed.metrics.FlowStats`/airtime/extra payloads via
:class:`~repro.runner.results.TrialResult`). The runner handles trial
fan-out, seeding, and aggregation; scenario functions stay single-trial
and pure-in-their-context.

Register new scenarios with the :func:`scenario` decorator, which files
one :class:`ScenarioRecord` per kind; :func:`get_scenario` returns it.
List them with :func:`available_scenarios` or ``python -m repro list``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.errors import ConfigurationError, ReproError, ScheduleError
from repro.mac.hidden import HiddenScenario
from repro.phy.channel import FREQ_SPREAD, PHASE_NOISE_STD, ChannelParams
from repro.phy.constellation import BPSK
from repro.phy.estimation import COARSE_FREQ_ERROR
from repro.phy.frame import extract_bits
from repro.phy.medium import Transmission, synthesize
from repro.phy.noise import NOISE_POWER
from repro.phy.sync import Synchronizer
from repro.receiver.decoder import StandardDecoder
from repro.receiver.frontend import StreamConfig, SymbolStreamDecoder
from repro.runner.builders import (
    STREAM_CLIENT_NAMES,
    build_city_session,
    build_stream_session,
    hidden_pair_scenario,
)
from repro.runner.cache import shared_cache
from repro.runner.results import TrialResult
from repro.runner.seeding import trial_rng, trial_seed, trial_seed_sequence
from repro.runner.spec import ScenarioSpec
from repro.testbed.experiment import (
    Design,
    PairExperiment,
    PairExperimentConfig,
    run_capture_sweep_point,
)
from repro.testbed.metrics import BER_DELIVERY_THRESHOLD, FlowStats
from repro.testbed.topology import SensingClass, default_testbed
from repro.utils.bits import bit_error_rate
from repro.zigzag.batch import BatchedPairDecoder
from repro.zigzag.decoder import ZigZagMultiDecoder
from repro.zigzag.engine import PacketSpec
from repro.zigzag.schedule import MARGIN_SYMBOLS, Placement, greedy_schedule

__all__ = [
    "BatchedScenarioHooks",
    "CollisionPayload",
    "ScenarioRecord",
    "TrialContext",
    "available_scenarios",
    "get_scenario",
    "scenario",
]

ScenarioFn = Callable[[ScenarioSpec, "TrialContext"], Any]

_ALL_DESIGNS = ("zigzag", "802.11", "collision-free")


@dataclass(frozen=True)
class TrialContext:
    """Everything one trial may draw randomness from."""

    index: int
    seed: int
    seed_sequence: np.random.SeedSequence
    rng: np.random.Generator

    @classmethod
    def for_trial(cls, root_seed: int, index: int) -> "TrialContext":
        """The canonical context of trial *index* under *root_seed*."""
        sequence = trial_seed_sequence(root_seed, index)
        return cls(index=index, seed=trial_seed(root_seed, index),
                   seed_sequence=sequence, rng=trial_rng(root_seed, index))


# ----------------------------------------------------------------------
# Batched execution hooks (ScenarioSpec.batch_size > 1)
# ----------------------------------------------------------------------
@dataclass
class CollisionPayload:
    """One trial's synthesized collision, ready for decoding.

    The batched execution mode splits a trial into rng-bound synthesis
    and numpy-bound decoding (the trial-axis engine, run over a group of
    payloads in the same process); this is what passes between the two.
    ``error`` set means synthesis itself failed and the decode stage
    must skip the trial (the loop path records the same failure
    metrics).
    """

    index: int
    captures: list
    specs: dict[str, PacketSpec]
    placements: list[Placement]
    truth: dict[str, np.ndarray]
    error: str | None = None


@dataclass(frozen=True)
class BatchedScenarioHooks:
    """How a scenario runs under ``batch_size > 1``.

    ``synthesize(spec, ctx)`` builds one trial's :class:`CollisionPayload`
    drawing ONLY from ``ctx`` — the same per-trial SeedSequence streams
    the loop path uses, which is what keeps results batch-size-invariant.
    ``decode(spec, payloads)`` turns a batch of payloads into
    per-trial :class:`TrialResult`s (same order).
    """

    synthesize: Callable[[ScenarioSpec, TrialContext], CollisionPayload]
    decode: Callable[[ScenarioSpec, list], list[TrialResult]]


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioRecord:
    """One registered ``kind``, as :func:`scenario` filed it.

    ``trial`` is the decorated trial function; the other fields are the
    decorator's keywords. The runner rejects a spec asking for a design,
    an ``[impairments]`` or ``[deployment]`` table, a ``[params]`` key,
    or a ``batch_size > 1`` that the record does not honor (an
    un-applied impairment would read as "ZigZag is robust to X" when X
    never happened), and the CLI labels a ``designs=None`` run "n/a".
    ``params`` maps every ``[params]`` key the kind reads to its default.
    """

    trial: ScenarioFn
    designs: tuple[str, ...] | None
    impairments: bool
    deployment: bool
    batched: BatchedScenarioHooks | None = None
    params: dict[str, Any] = field(default_factory=dict)


_REGISTRY: dict[str, ScenarioRecord] = {}


def scenario(name: str, *, designs: tuple[str, ...] | None = _ALL_DESIGNS,
             impairments: bool = False, deployment: bool = False,
             batched: BatchedScenarioHooks | None = None,
             params: dict[str, Any] | None = None
             ) -> Callable[[ScenarioFn], ScenarioFn]:
    """Register a trial function under a spec ``kind``.

    *designs* lists the ``spec.design`` values the scenario honors
    (default: all three); pass ``None`` for scenarios that are
    design-independent. *impairments* declares that the scenario threads
    the spec's ``[impairments]`` pipelines through its signal path;
    *deployment* that it builds its topology from the spec's
    ``[deployment]`` table. The runner rejects specs carrying either
    table for scenarios that don't consume it. *batched* registers the
    scenario's trial-axis engine for ``batch_size > 1`` runs. *params*
    maps each ``[params]`` key it reads to its default; no other is valid.
    """

    def register(fn: ScenarioFn) -> ScenarioFn:
        if name in _REGISTRY:
            raise ConfigurationError(f"scenario {name!r} already registered")
        _REGISTRY[name] = ScenarioRecord(fn, designs, impairments, deployment,
                                         batched, dict(params or {}))
        return fn

    return register


def get_scenario(name: str) -> ScenarioRecord:
    """Look up a registered scenario's record by ``kind``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scenario {name!r}; available: "
            f"{sorted(_REGISTRY)}") from None


def available_scenarios() -> dict[str, str]:
    """``{kind: first docstring line}`` for every registered scenario."""
    return {name: (record.trial.__doc__ or "").strip().splitlines()[0]
            for name, record in sorted(_REGISTRY.items())}


# ----------------------------------------------------------------------
# Built-in scenarios
# ----------------------------------------------------------------------
def _fairness_ratio(values) -> float:
    """Max/min throughput ratio, with a defined degenerate value.

    A trial where *every* sender got zero throughput is total starvation,
    not unfairness — report the perfectly-even ratio 1.0 rather than the
    0.0 that ``max/max(min, eps)`` would produce (which reads as "more
    fair than equal shares" to anything aggregating the metric).
    """
    values = [float(v) for v in values]
    top = max(values)
    if top <= 0.0:
        return 1.0
    return top / max(min(values), 1e-9)


def _experiment_config(spec: ScenarioSpec) -> PairExperimentConfig:
    imp = spec.impairments
    return PairExperimentConfig(
        payload_bits=spec.payload_bits,
        n_packets=spec.n_packets,
        backoff=spec.backoff.build(),
        sender_impairments=(imp.sender_pipeline()
                            if imp.sender else None),
        capture_impairments=(imp.capture_pipeline()
                             if imp.capture else None),
    )


def _pair_snrs(spec: ScenarioSpec) -> tuple[float, float]:
    # params.snr_db, when present, overrides the [[sender]] entries for
    # BOTH senders — so a CLI sweep `--param snr_db=...` takes effect
    # even on specs that declare named senders.
    snr_override = spec.param("snr_db")
    if snr_override is not None:
        return float(snr_override), float(snr_override)
    if len(spec.senders) >= 2:
        return spec.senders[0].snr_db, spec.senders[1].snr_db
    snr = spec.senders[0].snr_db if spec.senders else 12.0
    return snr, snr


@scenario("pair", impairments=True, params={"snr_db": None})
def pair_trial(spec: ScenarioSpec, ctx: TrialContext) -> TrialResult:
    """Two saturated senders to one AP under the design under test (§5.2).

    Senders come from the spec's ``[[sender]]`` entries (first two); with
    none, ``params.snr_db`` sets a symmetric pair. Metrics are normalized
    per-sender and total throughput plus per-sender loss.
    """
    snr_a, snr_b = _pair_snrs(spec)
    experiment = PairExperiment(
        snr_a, snr_b, sense_probability=spec.sense_probability,
        config=_experiment_config(spec), rng=ctx.rng)
    flows, airtime = experiment.run(Design(spec.design))
    shared = max(airtime, 1e-9)
    names = sorted(flows)
    metrics = {}
    for name, stats in flows.items():
        metrics[f"throughput_{name}"] = stats.delivered / shared
        metrics[f"loss_{name}"] = stats.loss_rate
    metrics["throughput_total"] = sum(
        metrics[f"throughput_{n}"] for n in names)
    return TrialResult(index=ctx.index, metrics=metrics, flows=flows,
                       airtime=airtime)


@scenario("capture", impairments=True,
          params={"sinr_db": 8.0, "snr_b_db": 9.0})
def capture_trial(spec: ScenarioSpec, ctx: TrialContext) -> dict:
    """One Fig 5-4 capture-effect point: SNR_A = SNR_B + params.sinr_db.

    Wraps :func:`repro.testbed.experiment.run_capture_sweep_point` with a
    per-trial derived seed; metrics are the normalized throughputs
    ``A``, ``B`` and ``total``.
    """
    return run_capture_sweep_point(
        float(spec.param("sinr_db")), Design(spec.design),
        snr_b_db=float(spec.param("snr_b_db")),
        config=_experiment_config(spec), seed=ctx.seed)


@scenario("zigzag_ber", designs=None, params={"snr_db": 10.0})
def zigzag_ber_trial(spec: ScenarioSpec, ctx: TrialContext) -> dict:
    """Fig 5-3 BER micro-benchmark: ZigZag vs the Collision-Free Scheduler.

    One hidden-pair collision pair per trial, decoded forward-only and
    forward+backward; the same frames are also sent in separate slots and
    decoded interference-free. Metrics: ``ber_fwd``, ``ber_both``,
    ``ber_free`` (each averaged over the pair's two packets).
    """
    rng = ctx.rng
    config = StreamConfig()
    snr_db = float(spec.param("snr_db"))
    captures, frames, specs, placements = hidden_pair_scenario(
        rng, snr_db=snr_db, payload_bits=spec.payload_bits)
    metrics = {}
    for use_backward, key in ((False, "ber_fwd"), (True, "ber_both")):
        outcome = ZigZagMultiDecoder(
            config, use_backward=use_backward).decode(
            [c.samples for c in captures], specs, placements)
        metrics[key] = float(np.mean(
            [outcome.results[n].ber_against(frames[n].body_bits)
             for n in frames]))
    # Collision-Free Scheduler baseline: same frames, separate slots; BER
    # measured over the full recovered stream with known framing.
    sync = Synchronizer()
    free = []
    for name, frame in frames.items():
        params = ChannelParams(
            gain=np.sqrt(10 ** (snr_db / 10) * NOISE_POWER)
            * np.exp(1j * rng.uniform(0, 2 * np.pi)),
            freq_offset=float(rng.uniform(-FREQ_SPREAD, FREQ_SPREAD)),
            sampling_offset=float(rng.uniform(0, 1)),
            phase_noise_std=PHASE_NOISE_STD)
        cap = synthesize([Transmission.from_symbols(
            frame.symbols, params, 0, "x")], NOISE_POWER, rng,
            leading=8, tail=30)
        t = cap.transmissions[0]
        est = sync.acquire(
            cap.samples, t.symbol0,
            coarse_freq=params.freq_offset
            + rng.normal(0, COARSE_FREQ_ERROR))
        stream = SymbolStreamDecoder(
            config, est, t.symbol0 + est.sampling_offset)
        chunk = stream.decode_chunk(cap.samples, frame.n_symbols)
        bits, _, _ = extract_bits(chunk.soft, BPSK)
        free.append(bit_error_rate(
            frame.body_bits, bits[:frame.body_bits.size]))
    metrics["ber_free"] = float(np.mean(free))
    return metrics


@scenario("schedule_failure", designs=None,
          params={"n_senders": 3, "n_symbols": 600})
def schedule_failure_trial(spec: ScenarioSpec, ctx: TrialContext) -> dict:
    """Fig 4-7: does greedy chunk scheduling fail for this backoff draw?

    ``params.n_senders`` mutually-hidden senders collide ``n_senders``
    times with fresh jitter drawn from the spec's backoff policy; the
    trial reports ``failed`` = 1.0 when no complete decode order exists.
    The run-level mean of ``failed`` is the figure's failure probability.
    """
    rng = ctx.rng
    n_senders = int(spec.param("n_senders"))
    n_symbols = int(spec.param("n_symbols"))
    picker = spec.backoff.build()
    hidden = HiddenScenario(n_senders=n_senders, picker=picker)
    names = [f"s{i}" for i in range(n_senders)]
    rounds = hidden.collision_offsets(rng, n_senders)
    placements = [
        # Each transmission lands with an independent fractional sampling
        # phase, as on real hardware — exact sample ties do not occur.
        Placement(name, c, float(off) + rng.uniform(0, 1), n_symbols)
        for c, offsets in enumerate(rounds)
        for name, off in zip(names, offsets)
    ]
    try:
        greedy_schedule(placements, margin_symbols=MARGIN_SYMBOLS)
    except ScheduleError:
        return {"failed": 1.0}
    return {"failed": 0.0}


@scenario("testbed_pair", designs=None, impairments=True,
          params={"testbed_seed": 7})
def testbed_pair_trial(spec: ScenarioSpec, ctx: TrialContext) -> TrialResult:
    """One §5.6 campaign draw: a random testbed pair under both designs.

    Samples a sender pair (with a reachable AP) from the 14-node testbed
    and runs it under Current 802.11 and ZigZag. Metrics compare the two
    designs; ``extra`` carries per-flow detail and the sensing class for
    the Fig 5-5..5-8 CDFs and scatter plots.
    """
    rng = ctx.rng
    seed = int(spec.param("testbed_seed"))
    testbed = shared_cache().get(("testbed", seed),
                                 lambda: default_testbed(seed=seed))
    a, b, ap = testbed.sample_pair(rng)
    sense = min(testbed.sense_probability(a, b),
                testbed.sense_probability(b, a))
    sensing_class = testbed.sensing_class(a, b)
    config = _experiment_config(spec)
    metrics: dict[str, float] = {}
    extra: dict[str, Any] = {"pair": (a, b, ap),
                             "class": sensing_class.value}
    flows_out: dict[str, FlowStats] = {}
    for design in (Design.CURRENT_80211, Design.ZIGZAG):
        experiment = PairExperiment(
            float(testbed.snr_db[ap, a]), float(testbed.snr_db[ap, b]),
            sense_probability=sense, config=config,
            rng=np.random.default_rng(int(rng.integers(1 << 31))))
        flows, airtime = experiment.run(design)
        shared = max(airtime, 1e-9)
        tag = "80211" if design is Design.CURRENT_80211 else "zigzag"
        metrics[f"throughput_{tag}"] = sum(
            s.delivered for s in flows.values()) / shared
        metrics[f"loss_{tag}"] = float(np.mean(
            [s.loss_rate for s in flows.values()]))
        extra[tag] = {
            "flow_throughputs": {n: s.delivered / shared
                                 for n, s in flows.items()},
            "loss": [s.loss_rate for s in flows.values()],
        }
        for name, stats in flows.items():
            flows_out[f"{tag}_{name}"] = stats
    metrics["hidden"] = float(sensing_class is not SensingClass.PERFECT)
    return TrialResult(index=ctx.index, metrics=metrics, flows=flows_out,
                       extra=extra)


# ----------------------------------------------------------------------
# Streaming closed-loop scenarios (the repro.link subsystem)
# ----------------------------------------------------------------------
def _run_both_designs(seed: int, build: Callable) -> tuple[dict, dict, dict]:
    """One session per AP design, common random numbers.

    ``build(rng, design)`` makes each design's session from an
    identically-seeded generator, so the air starts out the same and
    differences are the receiver's doing (the closed loop then diverges
    through its own feedback). Returns ``(reports, metrics, flows)``:
    the reports by tag (``zigzag``, ``80211``), the per-design
    ``throughput/delivered/loss/timed_out_{tag}`` metrics in that
    insertion order (tables list metrics first-seen), and every flow as
    ``{tag}_{client}``.
    """
    reports = {}
    metrics: dict[str, float] = {}
    flows = {}
    for design, tag in (("zigzag", "zigzag"), ("802.11", "80211")):
        report = build(np.random.default_rng(seed), design).run()
        reports[tag] = report
        stats_all = list(report.flows.values())
        metrics[f"throughput_{tag}"] = report.throughput()
        metrics[f"delivered_{tag}"] = float(report.total_delivered)
        metrics[f"loss_{tag}"] = float(np.mean(
            [s.loss_rate for s in stats_all])) if stats_all else 0.0
        metrics[f"timed_out_{tag}"] = float(report.timed_out)
        for name, stats in report.flows.items():
            flows[f"{tag}_{name}"] = stats
    return reports, metrics, flows


@scenario("ap_stream", designs=None, impairments=True,
          params={"n_clients": 3, "snr_db": 12.0, "offered_load": None,
                  "hidden_pairs": None, "hidden_cliques": None})
def ap_stream_trial(spec: ScenarioSpec, ctx: TrialContext) -> TrialResult:
    """N-client closed-loop streaming soak: ZigZag AP vs current 802.11.

    Continuous air, streaming burst segmentation, live ACK/retransmission
    feedback (§4.2.2, §4.4) — the paper's online system rather than
    hand-built collision pairs. Each client offers its ``[[sender]]``
    ``offered_load`` (Poisson arrivals), else ``params.offered_load``,
    else is saturated; sweep ``--param offered_load=0.2:1.0:0.2`` for
    the classic S-vs-G curves. Topology via ``params.hidden_pairs``
    (e.g. ``"A:B"``) or ``sense_probability``. Both AP designs run on
    common random numbers: per-client throughput/loss describe the
    ZigZag session, and aggregate
    ``throughput/delivered/loss_{zigzag,80211}`` pairs compare the two.
    """
    reports, metrics, flows = _run_both_designs(
        ctx.seed, lambda rng, design: build_stream_session(spec, rng, design))
    zz = reports["zigzag"]
    for name in zz.flows:
        metrics[f"throughput_{name}"] = zz.throughput(name)
        metrics[f"loss_{name}"] = zz.flows[name].loss_rate
    rx = zz.receiver_stats
    metrics["zigzag_matches"] = float(rx.zigzag_matches)
    metrics["collisions_stored"] = float(rx.collisions_stored)
    # Match-path observability (§4.2.2/§4.5): "buffer scanned but the
    # score stayed below threshold" vs "nothing was ever scoreable" are
    # different soak-run failure modes; surface both, plus the k-way
    # counters, per run.
    metrics["match_attempts"] = float(rx.match_attempts)
    metrics["match_rejects_threshold"] = float(rx.match_rejects_threshold)
    metrics["multiway_matches"] = float(rx.multiway_matches)
    metrics["max_resident_samples"] = zz.counters["max_resident_samples"]
    extra = {tag: dict(report.counters)
             for tag, report in reports.items()}
    return TrialResult(index=ctx.index, metrics=metrics, flows=flows,
                       airtime=zz.airtime_packets, extra=extra)


@scenario("three_senders_stream", designs=("zigzag",), impairments=True,
          params={"n_senders": 3, "snr_db": 12.0, "offered_load": None})
def three_senders_stream_trial(spec: ScenarioSpec,
                               ctx: TrialContext) -> TrialResult:
    """Fig 5-9 through the online AP: n mutually-hidden streaming senders.

    ``params.n_senders`` clients, saturated unless
    ``params.offered_load`` is set, form one hidden clique over
    continuous air; each collision then carries all n
    packets, and the closed-loop ZigZag AP resolves the k-way collision
    sets assembled from its buffer's match graph (§4.5), with real
    segmentation, matching, ACKs and retransmissions. Metrics: per-sender
    and total wall-clock normalized throughput, ``collision_throughput_*``
    (delivered packets per detected collision, Fig 5-9's normalization),
    ``fairness_ratio``, and the receiver's match/k-way counters. Sweep
    ``--param n_senders=2:4`` for the throughput-vs-k curve.
    """
    if spec.senders:
        raise ConfigurationError(
            "three_senders_stream builds its own symmetric clique from "
            "params.n_senders/snr_db; [[sender]] tables would be "
            "silently ignored — use the ap_stream scenario with "
            "params.hidden_cliques for per-sender control")
    n = int(spec.param("n_senders"))
    if not 2 <= n <= len(STREAM_CLIENT_NAMES):
        raise ConfigurationError(
            f"params.n_senders must be in [2, {len(STREAM_CLIENT_NAMES)}]")
    names = list(STREAM_CLIENT_NAMES[:n])
    session = build_stream_session(
        spec, np.random.default_rng(ctx.seed), "zigzag", clique=names)
    report = session.run()
    rx = report.receiver_stats
    metrics: dict[str, float] = {}
    for name in names:
        metrics[f"throughput_{name}"] = report.throughput(name)
        metrics[f"loss_{name}"] = report.flows[name].loss_rate
    metrics["throughput_total"] = report.throughput()
    metrics["fairness_ratio"] = _fairness_ratio(
        [report.throughput(name) for name in names])
    # Fig 5-9 normalizes by collision count: each collision is one
    # packet-airtime of fully-overlapped medium.
    collisions = max(float(rx.collisions_detected), 1.0)
    for name in names:
        metrics[f"collision_throughput_{name}"] = \
            report.flows[name].delivered / collisions
    metrics["collision_throughput_total"] = \
        report.total_delivered / collisions
    metrics["collisions_detected"] = float(rx.collisions_detected)
    metrics["zigzag_matches"] = float(rx.zigzag_matches)
    metrics["multiway_attempts"] = float(rx.multiway_attempts)
    metrics["multiway_matches"] = float(rx.multiway_matches)
    metrics["packets_multiway"] = float(rx.packets_multiway)
    metrics["match_attempts"] = float(rx.match_attempts)
    metrics["match_rejects_threshold"] = float(rx.match_rejects_threshold)
    metrics["timed_out"] = float(report.timed_out)
    return TrialResult(index=ctx.index, metrics=metrics,
                       flows=dict(report.flows),
                       airtime=report.airtime_packets,
                       extra={"counters": dict(report.counters)})


# ----------------------------------------------------------------------
# Geometry-derived city block (the [deployment] spec table)
# ----------------------------------------------------------------------
@scenario("city_multicell", designs=("zigzag", "802.11"),
          impairments=True, deployment=True)
def city_multicell_trial(spec: ScenarioSpec,
                         ctx: TrialContext) -> TrialResult:
    """The whole coupled city block under the design under test.

    One :class:`~repro.link.MultiCellSession` per trial: every populated
    cell runs its own event engine and the coordinator exchanges real
    inter-cell interference waveforms at horizon boundaries. With
    ``deployment.coupled_workers != 1`` the cells step on a pool of
    pinned worker processes with bit-identical results
    (``coupled_workers``/``coupled_degraded`` record how the block was
    actually driven). Metrics: block throughput/delivered, per-cell
    throughput (``throughput_ap{a}``), timed-out cell count, the summed
    resident-sample peak, and the exchange counters; ``extra`` carries
    the exchange counters and each cell's session counters by AP
    (``cells``), which hold the per-cell resident-sample peaks.
    """
    city = build_city_session(
        spec, np.random.default_rng(ctx.seed), spec.design)
    report = city.run()
    metrics: dict[str, float] = {
        "coupled_workers": float(report.workers),
        "coupled_degraded": float(report.degraded),
        "throughput_total": report.throughput(),
        "delivered_total": float(report.total_delivered),
        "timed_out_cells": float(report.timed_out_cells),
        "max_resident_samples": float(report.max_resident_samples),
        "windows": report.counters["windows"],
        "injections": report.counters["injections"],
        "samples_injected": report.counters["samples_injected"],
        "samples_clipped": report.counters["samples_clipped"],
    }
    flows = {}
    losses = []
    for ap, cell_report in sorted(report.cells.items()):
        metrics[f"throughput_ap{ap}"] = cell_report.throughput()
        for name, stats in cell_report.flows.items():
            flows[f"ap{ap}_{name}"] = stats
            losses.append(stats.loss_rate)
    metrics["loss_mean"] = float(np.mean(losses)) if losses else 0.0
    return TrialResult(
        index=ctx.index, metrics=metrics, flows=flows,
        extra={"counters": dict(report.counters),
               "cells": {ap: dict(cell_report.counters)
                         for ap, cell_report in sorted(
                             report.cells.items())}})


# ----------------------------------------------------------------------
# Impaired hidden pair (beyond the quasi-static channel)
# ----------------------------------------------------------------------
@scenario("hidden_pair_impaired", designs=None, impairments=True,
          params={"snr_db": 12.0})
def hidden_pair_impaired_trial(spec: ScenarioSpec,
                               ctx: TrialContext) -> dict:
    """Hidden pair under the spec's ``[impairments]`` pipelines.

    Builds the canonical two-collision hidden pair with whatever
    ``[[impairments.sender]]`` / ``[[impairments.capture]]`` stages the
    TOML file lists (identity when absent), ZigZag-decodes the pair,
    and — on the same two captures — runs the plain
    :class:`StandardDecoder` per transmission, keeping each packet's
    best BER. The metric pairs chart how each receiver degrades as the
    impairment worsens: ``ber_zigzag``, ``ber_standard``,
    ``delivered_zigzag``, ``delivered_standard`` (packets out of 2).
    """
    rng = ctx.rng
    imp = spec.impairments
    snr_db = float(spec.param("snr_db"))
    bers_z = {"A": 1.0, "B": 1.0}
    bers_s = {"A": 1.0, "B": 1.0}
    try:
        captures, frames, specs, placements = hidden_pair_scenario(
            rng, snr_db=snr_db,
            payload_bits=spec.payload_bits,
            sender_impairments=(imp.sender_pipeline() if imp.sender
                                else None),
            capture_impairments=(imp.capture_pipeline() if imp.capture
                                 else None))
    except ReproError:
        captures = []
    if captures:
        try:
            outcome = ZigZagMultiDecoder(StreamConfig()).decode(
                [c.samples for c in captures], specs, placements)
            bers_z = {n: outcome.results[n].ber_against(
                frames[n].body_bits) for n in frames}
        except ReproError:
            pass
        for capture in captures:
            for t in capture.transmissions:
                coarse = t.params.freq_offset + rng.normal(
                    0, COARSE_FREQ_ERROR)
                decoder = StandardDecoder(coarse_freq=coarse)
                try:
                    result = decoder.decode(capture.samples,
                                            start_position=t.symbol0)
                except ReproError:
                    continue
                bers_s[t.label] = min(
                    bers_s[t.label],
                    result.ber_against(frames[t.label].body_bits))
    delivered = {key: float(sum(b < BER_DELIVERY_THRESHOLD
                                for b in bers.values()))
                 for key, bers in (("zigzag", bers_z), ("standard", bers_s))}
    return {"ber_zigzag": float(np.mean(list(bers_z.values()))),
            "ber_standard": float(np.mean(list(bers_s.values()))),
            "delivered_zigzag": delivered["zigzag"],
            "delivered_standard": delivered["standard"]}


# ----------------------------------------------------------------------
# Batched hidden-pair decode (the batch_size > 1 reference scenario)
# ----------------------------------------------------------------------
def _hidden_pair_decode_synth(spec: ScenarioSpec,
                              ctx: TrialContext) -> CollisionPayload:
    """Synthesize one hidden-pair trial from the trial's own rng.

    This is the rng-bound half of a ``hidden_pair_decode`` trial — every
    draw comes from ``ctx.rng`` in the same order regardless of
    ``batch_size``, so per-trial seed streams (and therefore results)
    are identical between the loop and batched modes.
    """
    rng = ctx.rng
    imp = spec.impairments
    sender_pipe = imp.sender_pipeline() if imp.sender else None
    capture_pipe = imp.capture_pipeline() if imp.capture else None
    try:
        captures, frames, specs, placements = hidden_pair_scenario(
            rng, snr_db=float(spec.param("snr_db")),
            payload_bits=spec.payload_bits,
            sender_impairments=sender_pipe,
            capture_impairments=capture_pipe)
    except ReproError as exc:
        return CollisionPayload(ctx.index, [], {}, [], {},
                                error=str(exc))
    return CollisionPayload(
        index=ctx.index,
        captures=[c.samples for c in captures],
        specs=specs,
        placements=placements,
        truth={name: frames[name].body_bits for name in frames})


def _pair_payload_result(payload: CollisionPayload,
                         outcome) -> TrialResult:
    """Per-trial metrics + FlowStats from a (possibly failed) decode.

    Shared verbatim by the loop and batched paths so the two modes can
    only differ if the decoded bits themselves differ.
    """
    flows = {name: FlowStats() for name in sorted(payload.truth)} or \
        {name: FlowStats() for name in ("A", "B")}
    bers = {}
    for name, stats in flows.items():
        ber = 1.0
        if outcome is not None and name in outcome.results:
            ber = float(outcome.results[name].ber_against(
                payload.truth[name]))
        bers[name] = ber
        stats.record(ber)
    delivered = float(sum(b < BER_DELIVERY_THRESHOLD
                          for b in bers.values()))
    return TrialResult(
        index=payload.index,
        metrics={"ber": float(np.mean(list(bers.values()))),
                 "delivered": delivered,
                 "decode_failed": float(outcome is None)},
        flows=flows)


def _hidden_pair_decode_batch(spec: ScenarioSpec,
                              payloads: list) -> list[TrialResult]:
    """Decode a batch of hidden-pair payloads through the trial axis.

    A batch whose decode raises propagates: the runner replays that
    group through the per-trial loop path, whose own try/except gives a
    failing trial the identical failure metrics.
    """
    live = [p for p in payloads if p.error is None]
    outcomes: dict[int, Any] = {}
    if live:
        results = BatchedPairDecoder(StreamConfig()).decode_batch(
            [(p.captures, p.specs, p.placements) for p in live])
        outcomes = {p.index: outcome for p, outcome in zip(live, results)}
    return [_pair_payload_result(p, outcomes.get(p.index))
            for p in payloads]


@scenario("hidden_pair_decode", designs=None, impairments=True,
          batched=BatchedScenarioHooks(synthesize=_hidden_pair_decode_synth,
                                       decode=_hidden_pair_decode_batch),
          params={"snr_db": 12.0})
def hidden_pair_decode_trial(spec: ScenarioSpec,
                             ctx: TrialContext) -> TrialResult:
    """ZigZag hidden-pair decode with an optional batched engine.

    One canonical two-collision hidden pair per trial; metrics are the
    pair-mean BER against ground truth, packets delivered (of 2), and a
    decode-failure flag, plus per-sender :class:`FlowStats`. With
    ``batch_size > 1`` each runner batch synthesizes its trials and
    decodes them through the trial-axis
    :class:`~repro.zigzag.batch.BatchedPairDecoder` in groups, in the
    same worker — results are bit-identical to this loop path by the
    batched engine's equivalence contract.
    """
    payload = _hidden_pair_decode_synth(spec, ctx)
    outcome = None
    if payload.error is None:
        try:
            outcome = ZigZagMultiDecoder(StreamConfig()).decode(
                payload.captures, payload.specs, payload.placements)
        except ReproError:
            outcome = None
    return _pair_payload_result(payload, outcome)
