"""Signal-level scenario builders shared by scenarios, tests, benchmarks.

These build raw collision captures (with ground-truth frames and channel
placements) for trial functions that drive the ZigZag machinery directly,
below the :class:`~repro.testbed.experiment.PairExperiment` level.
Promoted from the test helpers so benchmarks no longer reach into
``tests/``; ``tests/helpers.py`` re-exports them.

:func:`build_stream_session` and :func:`build_cell_session` are the
declarative front of the streaming closed-loop subsystem: they map a
:class:`~repro.runner.spec.ScenarioSpec` onto a
:class:`~repro.link.LinkSession`. Both share one spec→config path
(:func:`_spec_session`); they differ only in where clients and the
:class:`~repro.link.Topology` come from — ``[[sender]]`` entries or
``params.n_clients`` (or a caller's clique) with ``params.hidden_pairs``/
``hidden_cliques`` or ``sense_probability`` (:func:`_stream_topology`),
or one cell of a generated deployment.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import ConfigurationError
from repro.link import (
    LinkSession,
    MultiCellConfig,
    MultiCellSession,
    SessionConfig,
    StreamClient,
    Topology,
)
from repro.phy.channel import FREQ_SPREAD, PHASE_NOISE_STD, ChannelParams
from repro.phy.constellation import BPSK
from repro.phy.estimation import COARSE_FREQ_ERROR
from repro.phy.frame import Frame
from repro.phy.medium import Transmission, require_air_interface, synthesize
from repro.phy.noise import NOISE_POWER
from repro.phy.sync import Synchronizer
from repro.runner.cache import shared_cache
from repro.testbed.deployment import CellPlan, Deployment
from repro.utils.bits import random_bits
from repro.zigzag.engine import PacketSpec, PlacementParams

__all__ = ["CELL_MAX_COLLISION_PACKETS", "STREAM_CLIENT_NAMES",
           "build_cell_session", "build_city_session",
           "build_stream_session", "get_deployment", "hidden_pair_scenario"]


def hidden_pair_scenario(rng, preamble=None, shaper=None, *, snr_db=12.0,
                         payload_bits=200, offsets=(160, 64),
                         phase_noise=PHASE_NOISE_STD, oracle=False,
                         snr_b_db=None, sender_impairments=None,
                         capture_impairments=None):
    """Build two collisions of the same (Alice, Bob) packet pair.

    *sender_impairments* (an :class:`~repro.phy.impairments.
    ImpairmentPipeline`) rides on both senders' channels;
    *capture_impairments* distorts each summed capture (AP front end /
    interferers). *preamble* and *shaper* may only be the air
    interface's own (:func:`~repro.phy.medium.require_air_interface`).
    Returns (captures, frames, specs, placements).
    """
    require_air_interface(preamble, shaper)
    amp_a = np.sqrt(10 ** (snr_db / 10) * NOISE_POWER)
    amp_b = np.sqrt(10 ** ((snr_b_db if snr_b_db is not None else snr_db)
                           / 10) * NOISE_POWER)
    frames = {
        "A": Frame.make(random_bits(payload_bits, rng), src=1, seq=1),
        "B": Frame.make(random_bits(payload_bits, rng), src=2, seq=2),
    }
    params = {
        "A": ChannelParams(
            gain=amp_a * np.exp(1j * rng.uniform(0, 2 * np.pi)),
            freq_offset=float(rng.uniform(-FREQ_SPREAD, FREQ_SPREAD)),
            sampling_offset=float(rng.uniform(0, 1)),
            phase_noise_std=phase_noise,
            impairments=sender_impairments),
        "B": ChannelParams(
            gain=amp_b * np.exp(1j * rng.uniform(0, 2 * np.pi)),
            freq_offset=float(rng.uniform(-FREQ_SPREAD, FREQ_SPREAD)),
            sampling_offset=float(rng.uniform(0, 1)),
            phase_noise_std=phase_noise,
            impairments=sender_impairments),
    }
    # Both collisions carry the same two frames: shape each once.
    alice, bob = (Transmission.from_symbols(frames[name].symbols,
                                            params[name], 0, name)
                  for name in ("A", "B"))
    captures = []
    for bob_offset in offsets:
        captures.append(synthesize(
            [alice, dataclasses.replace(bob, offset=bob_offset,
                                        symbol0=bob.symbol0 + bob_offset)],
            NOISE_POWER, rng, leading=8, tail=40,
            impairments=capture_impairments))
    sync = Synchronizer(threshold=0.3)
    placements = []
    for ci, capture in enumerate(captures):
        for t in capture.transmissions:
            if oracle:
                from repro.phy.estimation import ChannelEstimate
                est = ChannelEstimate(
                    gain=t.params.gain,
                    freq_offset=t.params.freq_offset,
                    sampling_offset=t.params.sampling_offset,
                    snr_db=snr_db)
            else:
                coarse = params[t.label].freq_offset \
                    + rng.normal(0, COARSE_FREQ_ERROR)
                est = sync.acquire(capture.samples, t.symbol0,
                                   coarse_freq=coarse)
            placements.append(PlacementParams(
                t.label, ci, t.symbol0 + est.sampling_offset, est))
    specs = {name: PacketSpec(name, frames[name].n_symbols, BPSK)
             for name in frames}
    return captures, frames, specs, placements


# Default client names for streaming sessions built without explicit
# [[sender]] tables; also bounds n_clients / n_senders.
STREAM_CLIENT_NAMES = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _parse_hidden(text, size=None) -> tuple[tuple[str, ...], ...]:
    """``"A:B:C,D:E"`` -> ``(("A", "B", "C"), ("D", "E"))``; None -> ``()``.

    Each comma-separated group is one set of mutually-hidden clients, of
    exactly *size* names when given (``hidden_pairs``: 2).
    """
    if text is None:
        return ()
    groups = []
    for piece in str(text).split(","):
        names = tuple(n.strip() for n in piece.strip().split(":"))
        if len(names) < 2 or not all(names) or size not in (None, len(names)):
            raise ConfigurationError(
                "hidden_pairs/hidden_cliques must look like 'A:B,B:C' / "
                f"'A:B:C,D:E', got {text!r}")
        groups.append(names)
    return tuple(groups)


def _stream_topology(spec, clique) -> Topology:
    """The :class:`~repro.link.Topology` a stream spec declares.

    A caller's *clique* (mutually-hidden client names), else
    ``params.hidden_pairs``/``params.hidden_cliques``, pins an explicit
    topology (every unlisted pair senses perfectly); otherwise every
    pair senses with the scenario's ``sense_probability``. Giving both
    is an error: the probability would have no pair left to apply to.
    """
    cliques = ((tuple(clique),) if clique is not None
               else _parse_hidden(spec.param("hidden_pairs"), 2)
               + _parse_hidden(spec.param("hidden_cliques")))
    if not cliques:
        return Topology.probabilistic(spec.sense_probability)
    if spec.sense_probability != 0.0:
        raise ConfigurationError(
            f"{spec.kind}'s hidden clients already declare who senses "
            f"whom; drop sense_probability (= {spec.sense_probability}) "
            "or params.hidden_pairs/hidden_cliques")
    return Topology.explicit(None, cliques)


# The k a generated cell resolves at most: big derived cells can contain
# large hidden cliques, and k-way resolution cost grows with k.
CELL_MAX_COLLISION_PACKETS = 4


def _spec_session(spec, rng: np.random.Generator, design: str,
                  clients: list[StreamClient], topology: Topology,
                  max_collision_packets: int | None) -> LinkSession:
    """The one spec→:class:`~repro.link.LinkSession` path: session knobs
    from the spec's scenario, ``[backoff]`` and ``[impairments]``
    tables."""
    imp = spec.impairments
    config = SessionConfig(
        payload_bits=spec.payload_bits,
        n_packets=spec.n_packets,
        backoff=spec.backoff.build(),
        topology=topology,
        max_collision_packets=max_collision_packets,
        sender_impairments=(imp.sender_pipeline() if imp.sender else None),
        capture_impairments=(imp.capture_pipeline() if imp.capture
                             else None),
    )
    return LinkSession(config, clients, design=design, rng=rng)


def build_stream_session(spec, rng: np.random.Generator, design: str,
                         clique=None) -> LinkSession:
    """A :class:`~repro.link.LinkSession` from a declarative spec.

    Clients come from the spec's ``[[sender]]`` entries (name, SNR,
    optional fixed ``freq_offset`` and per-client ``offered_load``); with
    none declared, symmetric clients named A, B, C, ... at
    ``params.snr_db`` are created: the names in *clique*, which are
    then mutually hidden, or else ``params.n_clients`` of them. A client
    without its own ``offered_load`` offers ``params.offered_load``, or
    is saturated when that is unset too. Frequency offsets not pinned by
    the spec are drawn from ± :data:`~repro.phy.channel.FREQ_SPREAD`
    with *rng* — build the two compared designs' sessions from
    identically-seeded generators for common random numbers. The
    ``[params]`` keys read here are declared by the spec's kind
    (``ap_stream``, ``three_senders_stream``).
    """
    load = spec.param("offered_load")
    default_load = float(load) if load is not None else None
    if spec.senders:
        entries = [(s.name, s.snr_db, s.freq_offset,
                    s.offered_load if s.offered_load is not None
                    else default_load)
                   for s in spec.senders]
    else:
        names = clique
        if names is None:
            n_clients = int(spec.param("n_clients"))
            if not 1 <= n_clients <= len(STREAM_CLIENT_NAMES):
                raise ConfigurationError(
                    "params.n_clients must be in "
                    f"[1, {len(STREAM_CLIENT_NAMES)}]")
            names = STREAM_CLIENT_NAMES[:n_clients]
        snr = float(spec.param("snr_db"))
        entries = [(name, snr, None, default_load) for name in names]
    clients = [
        StreamClient(
            name=name, src=i + 1, snr_db=snr,
            freq_offset=(freq if freq is not None
                         else float(rng.uniform(-FREQ_SPREAD, FREQ_SPREAD))),
            offered_load=load)
        for i, (name, snr, freq, load) in enumerate(entries)
    ]
    return _spec_session(spec, rng, design, clients,
                         _stream_topology(spec, clique), None)


# ----------------------------------------------------------------------
# Geometry-derived deployments (the [deployment] spec table)
# ----------------------------------------------------------------------
def get_deployment(spec) -> Deployment:
    """The spec's generated :class:`Deployment`, process-locally cached.

    A deployment is pure in its (config, seed) pair, so every trial of a
    run — and every worker process — regenerates the identical layout;
    the cache just skips the pathloss-matrix draw after the first trial
    in each process.
    """
    dep = spec.deployment
    if dep.is_empty:
        raise ConfigurationError(
            "this scenario derives its topology from geometry; "
            "add a [deployment] table (n_aps, n_clients, ...) to the spec")
    dep.validate()
    return shared_cache().get(
        ("deployment", dep),
        lambda: Deployment.generate(dep.config(), seed=dep.seed))


def build_cell_session(spec, rng: np.random.Generator, design: str,
                       deployment: Deployment, plan: CellPlan
                       ) -> LinkSession:
    """One cell of *deployment* as a :class:`~repro.link.LinkSession`.

    Clients carry the plan's derived names, global ``src`` ids and
    serving-AP SNRs; the topology is the plan's derived sense
    probabilities (:meth:`Topology.from_cell`), and per-client offered
    load comes from the ``[deployment]`` load mix. The session hears
    only its own cell: out-of-cell energy reaches it when a
    :class:`~repro.link.MultiCellSession` injects the other cells'
    waveforms (:func:`build_city_session`).
    """
    dep = spec.deployment
    clients = [
        StreamClient(
            name=name, src=src, snr_db=snr,
            freq_offset=float(rng.uniform(-FREQ_SPREAD, FREQ_SPREAD)),
            offered_load=dep.client_offered_load(index))
        for name, src, snr, index
        in zip(plan.names, plan.srcs, plan.snr_db, plan.clients)
    ]
    topology = Topology.from_cell(plan)
    max_k = min(topology.collision_packets(), CELL_MAX_COLLISION_PACKETS)
    return _spec_session(spec, rng, design, clients, topology, max_k)


def build_city_session(spec, rng: np.random.Generator,
                       design: str) -> MultiCellSession:
    """Every populated cell of the spec's deployment, coupled.

    Builds one closed-loop session per cell (each from its own child
    generator of *rng*, so the cell count doesn't perturb per-cell
    streams) and wraps them in a :class:`~repro.link.MultiCellSession`
    that exchanges real inter-cell interference waveforms at horizon
    boundaries. With ``deployment.coupled_workers != 1`` the
    coordinator steps cells on a pool of pinned worker processes
    (``repro.link.parallel``), with bit-identical results.
    """
    deployment = get_deployment(spec)
    cells = []
    for plan in deployment.cells():
        cell_rng = np.random.default_rng(int(rng.integers(1 << 63)))
        cells.append((plan, build_cell_session(
            spec, cell_rng, design, deployment, plan)))
    return MultiCellSession(
        deployment, cells,
        config=MultiCellConfig(
            workers=spec.deployment.coupled_workers,
            faults=(spec.faults if not spec.faults.is_empty else None)),
        rng=np.random.default_rng(int(rng.integers(1 << 63))))
