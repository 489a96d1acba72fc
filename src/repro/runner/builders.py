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
``params.n_clients`` with ``params.hidden_pairs``/``hidden_cliques`` or
``sense_probability`` (:func:`_stream_topology`), or one cell of a
generated deployment.
"""

from __future__ import annotations

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
from repro.phy.channel import ChannelParams
from repro.phy.constellation import BPSK
from repro.phy.frame import Frame
from repro.phy.impairments import BurstNoise, ImpairmentPipeline
from repro.phy.medium import Transmission, synthesize
from repro.phy.sync import Synchronizer
from repro.runner.cache import cached_preamble, cached_shaper, shared_cache
from repro.testbed.deployment import CellPlan, Deployment
from repro.utils.bits import random_bits
from repro.zigzag.engine import PacketSpec, PlacementParams

__all__ = ["STREAM_CLIENT_NAMES", "build_cell_session",
           "build_city_session", "build_stream_session", "get_deployment",
           "hidden_pair_scenario"]


def hidden_pair_scenario(rng, preamble, shaper, *, snr_db=12.0,
                         payload_bits=200, offsets=(160, 64),
                         phase_noise=1e-3, noise_power=1.0,
                         freq_spread=4e-3, oracle=False,
                         snr_b_db=None, sender_impairments=None,
                         capture_impairments=None):
    """Build two collisions of the same (Alice, Bob) packet pair.

    *sender_impairments* (an :class:`~repro.phy.impairments.
    ImpairmentPipeline`) rides on both senders' channels;
    *capture_impairments* distorts each summed capture (AP front end /
    interferers). Returns (captures, frames, specs, placements).
    """
    amp_a = np.sqrt(10 ** (snr_db / 10) * noise_power)
    amp_b = np.sqrt(10 ** ((snr_b_db if snr_b_db is not None else snr_db)
                           / 10) * noise_power)
    frames = {
        "A": Frame.make(random_bits(payload_bits, rng), src=1, seq=1,
                        preamble=preamble),
        "B": Frame.make(random_bits(payload_bits, rng), src=2, seq=2,
                        preamble=preamble),
    }
    params = {
        "A": ChannelParams(
            gain=amp_a * np.exp(1j * rng.uniform(0, 2 * np.pi)),
            freq_offset=float(rng.uniform(-freq_spread, freq_spread)),
            sampling_offset=float(rng.uniform(0, 1)),
            phase_noise_std=phase_noise,
            impairments=sender_impairments),
        "B": ChannelParams(
            gain=amp_b * np.exp(1j * rng.uniform(0, 2 * np.pi)),
            freq_offset=float(rng.uniform(-freq_spread, freq_spread)),
            sampling_offset=float(rng.uniform(0, 1)),
            phase_noise_std=phase_noise,
            impairments=sender_impairments),
    }
    captures = []
    for bob_offset in offsets:
        captures.append(synthesize(
            [Transmission.from_symbols(frames["A"].symbols, shaper,
                                       params["A"], 0, "A"),
             Transmission.from_symbols(frames["B"].symbols, shaper,
                                       params["B"], bob_offset, "B")],
            noise_power, rng, leading=8, tail=40,
            impairments=capture_impairments))
    sync = Synchronizer(preamble, shaper, threshold=0.3)
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
                    + rng.normal(0, 1.5e-5)
                est = sync.acquire(capture.samples, t.symbol0,
                                   coarse_freq=coarse,
                                   noise_power=noise_power)
            placements.append(PlacementParams(
                t.label, ci, t.symbol0 + est.sampling_offset, est))
    specs = {name: PacketSpec(name, frames[name].n_symbols, BPSK)
             for name in frames}
    return captures, frames, specs, placements


# Default client names for streaming sessions built without explicit
# [[sender]] tables; also bounds n_clients / n_senders.
STREAM_CLIENT_NAMES = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _parse_hidden_pairs(text) -> tuple[tuple[str, str], ...]:
    """``"A:B,B:C"`` -> ``(("A", "B"), ("B", "C"))``."""
    pairs = []
    for piece in str(text).split(","):
        a, sep, b = piece.strip().partition(":")
        if not sep or not a or not b:
            raise ConfigurationError(
                f"hidden_pairs must look like 'A:B,B:C', got {text!r}")
        pairs.append((a.strip(), b.strip()))
    return tuple(pairs)


def _parse_hidden_cliques(text) -> tuple[tuple[str, ...], ...]:
    """``"A:B:C,D:E"`` -> ``(("A", "B", "C"), ("D", "E"))``.

    Each comma-separated group is one set of mutually-hidden clients.
    """
    cliques = []
    for piece in str(text).split(","):
        names = tuple(n.strip() for n in piece.strip().split(":"))
        if len(names) < 2 or not all(names):
            raise ConfigurationError(
                f"hidden_cliques must look like 'A:B:C,D:E', got {text!r}")
        cliques.append(names)
    return tuple(cliques)


def _stream_topology(spec) -> Topology:
    """The :class:`~repro.link.Topology` a stream spec declares.

    ``params.hidden_pairs``/``params.hidden_cliques`` pin an explicit
    topology (every unlisted pair senses perfectly); otherwise every
    pair senses with the scenario's ``sense_probability``. Giving both
    is an error: the probability would have no pair left to apply to.
    """
    hidden = spec.param("hidden_pairs")
    cliques = spec.param("hidden_cliques")
    if hidden is None and cliques is None:
        return Topology.probabilistic(spec.sense_probability)
    if spec.sense_probability != 0.0:
        raise ConfigurationError(
            "params.hidden_pairs/hidden_cliques already declare who "
            "senses whom; drop sense_probability "
            f"(= {spec.sense_probability}) or the hidden lists")
    return Topology.explicit(
        _parse_hidden_pairs(hidden) if hidden is not None else None,
        _parse_hidden_cliques(cliques) if cliques is not None else None)


def _spec_session(spec, rng: np.random.Generator, design: str,
                  clients: list[StreamClient], topology: Topology,
                  max_collision_packets: int | None,
                  interference: list | tuple = ()) -> LinkSession:
    """The one spec→:class:`~repro.link.LinkSession` path: session knobs
    from the spec's scenario, ``[channel]``, ``[backoff]``,
    ``[impairments]`` and ``[params]`` tables, with any *interference*
    stages appended to the capture pipeline."""
    if spec.param("engine") is not None:
        # [params] is free-form, so a stale key would otherwise be
        # silently ignored.
        raise ConfigurationError(
            "params.engine is no longer accepted: the slot-clocked "
            "session core was removed and every session runs on the "
            "event core; drop the key")
    imp = spec.impairments
    capture = imp.capture_pipeline() if imp.capture else None
    if interference:
        capture = ImpairmentPipeline(
            tuple(capture.stages if capture else ()) + tuple(interference))
    config = SessionConfig(
        payload_bits=spec.payload_bits,
        n_packets=spec.n_packets,
        max_attempts=int(spec.param("max_attempts", 6)),
        noise_power=spec.channel.noise_power,
        slot_samples=spec.slot_samples,
        backoff=spec.backoff.build(),
        phase_noise_std=spec.channel.phase_noise_std,
        tx_evm=spec.channel.tx_evm,
        coarse_freq_error=spec.channel.coarse_freq_error,
        topology=topology,
        max_collision_packets=max_collision_packets,
        modulation=spec.modulation,
        preamble_length=spec.preamble_length,
        chunk_samples=int(spec.param("chunk_samples", 1024)),
        buffer_max_age=int(spec.param("buffer_max_age", 24)),
        sender_impairments=(imp.sender_pipeline() if imp.sender else None),
        capture_impairments=capture,
    )
    return LinkSession(config, clients, design=design, rng=rng,
                       preamble=cached_preamble(spec.preamble_length),
                       shaper=cached_shaper())


def build_stream_session(spec, rng: np.random.Generator, design: str,
                         default_load: float | None = None) -> LinkSession:
    """A :class:`~repro.link.LinkSession` from a declarative spec.

    Clients come from the spec's ``[[sender]]`` entries (name, SNR,
    optional fixed ``freq_offset`` and per-client ``offered_load``); with
    none declared, ``params.n_clients`` (default 3) symmetric clients
    named A, B, C, ... at ``params.snr_db`` are created. Frequency
    offsets not pinned by the spec are drawn from ± ``channel.
    freq_spread`` with *rng* — build the two compared designs' sessions
    from identically-seeded generators for common random numbers.

    Recognized ``[params]`` extras: ``n_clients``, ``snr_db``,
    ``max_attempts``, ``chunk_samples``, ``buffer_max_age``,
    ``hidden_pairs`` (e.g. ``"A:B"``; every unlisted pair then senses
    perfectly), ``hidden_cliques`` (e.g. ``"A:B:C"``: groups of
    mutually-hidden clients, enabling the AP's k-way collision
    resolution; either list excludes a nonzero ``sense_probability``),
    ``max_collision_packets`` (override the derived k) and
    ``offered_load`` (via *default_load*). ``engine`` is rejected: the
    slot-clocked core it selected was removed.
    """
    spread = spec.channel.freq_spread
    if spec.senders:
        entries = [(s.name, s.snr_db, s.freq_offset,
                    s.offered_load if s.offered_load is not None
                    else default_load)
                   for s in spec.senders]
    else:
        n_clients = int(spec.param("n_clients", 3))
        if not 1 <= n_clients <= len(STREAM_CLIENT_NAMES):
            raise ConfigurationError(
                f"params.n_clients must be in [1, {len(STREAM_CLIENT_NAMES)}]")
        snr = float(spec.param("snr_db", 12.0))
        entries = [(STREAM_CLIENT_NAMES[i], snr, None, default_load)
                   for i in range(n_clients)]
    clients = [
        StreamClient(
            name=name, src=i + 1, snr_db=snr,
            freq_offset=(freq if freq is not None
                         else float(rng.uniform(-spread, spread))),
            offered_load=load)
        for i, (name, snr, freq, load) in enumerate(entries)
    ]
    max_k = spec.param("max_collision_packets")
    return _spec_session(spec, rng, design, clients, _stream_topology(spec),
                         int(max_k) if max_k is not None else None)


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


# At most this many out-of-cell interferers are approximated per cell in
# sharded mode; the strongest dominate the sum and each stage costs one
# noise draw per chunk.
_MAX_APPROX_INTERFERERS = 3


def _interference_stages(spec, deployment: Deployment,
                         plan: CellPlan) -> list:
    """Bursty-noise stand-ins for the strongest out-of-cell transmitters.

    Sharded (one-cell-per-worker) runs cannot exchange real cross-cell
    waveforms, so each foreign client the AP hears above the interference
    floor becomes a ``burst_noise`` stage: power at the victim AP from
    the SNR matrix, duty cycle from the client's offered load (a
    saturated client holds the medium roughly a packet in three once MAC
    overhead and backoff are paid), burst length of one air chunk.
    """
    dep = spec.deployment
    stages = []
    heard = deployment.interferers(plan.ap, dep.interference_floor_db)
    for client, snr in heard[:_MAX_APPROX_INTERFERERS]:
        load = dep.client_offered_load(client)
        duty = 0.35 if load is None else min(1.0, float(load))
        stages.append(BurstNoise(
            power_db=float(snr), duty_cycle=duty,
            burst_samples=int(spec.param("chunk_samples", 1024))))
    return stages


def build_cell_session(spec, rng: np.random.Generator, design: str,
                       deployment: Deployment, plan: CellPlan, *,
                       approximate_interference: bool = False
                       ) -> LinkSession:
    """One cell of a deployment as a :class:`~repro.link.LinkSession`.

    Clients carry the plan's derived names, global ``src`` ids and
    serving-AP SNRs; the topology is the plan's derived sense
    probabilities (:meth:`Topology.from_cell`), and per-client offered
    load comes from the ``[deployment]`` load mix. With
    *approximate_interference* the strongest out-of-cell transmitters
    ride the capture pipeline as bursty noise (sharded mode); leave it
    off when a :class:`~repro.link.MultiCellSession` exchanges the real
    waveforms instead.
    """
    dep = spec.deployment
    spread = spec.channel.freq_spread
    clients = [
        StreamClient(
            name=name, src=src, snr_db=snr,
            freq_offset=float(rng.uniform(-spread, spread)),
            offered_load=dep.client_offered_load(index))
        for name, src, snr, index
        in zip(plan.names, plan.srcs, plan.snr_db, plan.clients)
    ]
    topology = Topology.from_cell(plan)
    # Big derived cells can contain large hidden cliques; cap the AP's
    # k-way resolution cost unless the spec raises it explicitly.
    max_k = min(topology.collision_packets(),
                int(spec.param("max_collision_packets", 4)))
    interference = (_interference_stages(spec, deployment, plan)
                    if approximate_interference else ())
    return _spec_session(spec, rng, design, clients, topology, max_k,
                         interference)


def build_city_session(spec, rng: np.random.Generator,
                       design: str) -> MultiCellSession:
    """Every populated cell of the spec's deployment, coupled.

    Builds one closed-loop session per cell (each from its own child
    generator of *rng*, so the cell count doesn't perturb per-cell
    streams) and wraps them in a :class:`~repro.link.MultiCellSession`
    that exchanges real inter-cell interference waveforms at horizon
    boundaries — no bursty-noise approximation. With
    ``deployment.coupled_workers != 1`` the coordinator steps cells on
    a pool of pinned worker processes (``repro.link.parallel``), with
    bit-identical results.
    """
    deployment = get_deployment(spec)
    dep = spec.deployment
    cells = []
    for plan in deployment.cells():
        cell_rng = np.random.default_rng(int(rng.integers(1 << 63)))
        cells.append((plan, build_cell_session(
            spec, cell_rng, design, deployment, plan,
            approximate_interference=False)))
    return MultiCellSession(
        deployment, cells,
        config=MultiCellConfig(
            horizon_chunks=dep.horizon_chunks,
            interference_floor_db=dep.interference_floor_db,
            workers=dep.coupled_workers,
            faults=(spec.faults if not spec.faults.is_empty else None)),
        rng=np.random.default_rng(int(rng.integers(1 << 63))))
