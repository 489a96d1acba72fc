"""Multi-cell coordinator: one EventEngine per AP, one shared horizon.

Scales the closed-loop session from one AP to a city block: every cell
of a :class:`~repro.testbed.deployment.Deployment` runs its own
:class:`~repro.link.session.LinkSession` (own clients, own
:class:`~repro.link.air.ContinuousAir`, own AP) driven by its own
:class:`~repro.link.events.EventEngine`, and a coordinator advances all
engines in lockstep windows of a common *event horizon* (a fixed number
of air chunks). At each horizon boundary the cells exchange inter-cell
interference: every waveform scheduled during the window is injected
into each other cell whose AP hears that client above a floor, scaled
by the cross-link/home-link SNR ratio with a fresh carrier phase (the
cross channel is a different path), via :meth:`ContinuousAir.inject`.

The exchange is **order-independent by construction**: every injected
carrier phase is derived from a :class:`numpy.random.SeedSequence`
keyed by ``(window, src AP, dst AP, transmission seq)`` rather than
drawn from a shared sequential stream, and the victim set of each
transmitter is precomputed once from the deployment SNR matrix. That
makes the coordinator's output a pure function of the per-cell sessions
plus the keys — which is what lets the process-parallel execution mode
(``MultiCellConfig.workers > 1``, see :mod:`repro.link.parallel`)
produce *bit-identical* reports at any worker count.

Two deliberate approximations, both consequences of exchanging at
horizon boundaries rather than per sample:

- interference that reaches into air a victim cell already emitted is
  clipped at the victim's cursor (counted in ``samples_clipped``);
  shrink ``horizon_chunks`` to tighten the exchange;
- cross-cell *carrier sense* is not modeled — by construction a
  deployment's cells are separated beyond carrier-sense range, so
  cross-cell energy appears at the victim **AP** as decode-degrading
  interference, not at its clients as channel-busy.

Each engine keeps its own runaway cap, so a stuck cell times out alone
without stalling the block.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.link.events import EventEngine
from repro.link.session import LinkSession, SessionReport

__all__ = ["MultiCellConfig", "MultiCellReport", "MultiCellSession",
           "apply_injection"]


@dataclass(frozen=True)
class MultiCellConfig:
    """Knobs of the coordinator."""

    # Horizon window length, in air chunks: engines run independently
    # inside a window and exchange interference at its end.
    horizon_chunks: int = 4
    # Inject a cross-cell waveform only when the transmitting client's
    # SNR at the victim AP is at least this (dB); weaker cross links
    # stay below the noise the victim already synthesizes.
    interference_floor_db: float = -2.0
    # Cell worker processes: 1 steps every cell sequentially in this
    # process, N > 1 pins cells to N persistent workers that step each
    # window concurrently (see repro.link.parallel), 0 means one worker
    # per cell. Results are bit-identical at any value.
    workers: int = 1
    # Barrier watchdog: a worker that takes longer than this to reach a
    # horizon boundary (or to apply its injections) is presumed hung;
    # the pool is torn down and the block reruns sequentially.
    step_timeout_s: float = 60.0
    # Optional chaos injection inside cell workers (a
    # repro.runner.chaos.FaultSpec); used by the resilience tests to
    # prove the degrade-to-sequential path.
    faults: object | None = None

    def __post_init__(self) -> None:
        if self.horizon_chunks < 1:
            raise ConfigurationError("horizon_chunks must be >= 1")
        if self.workers < 0:
            raise ConfigurationError("workers must be >= 0 (0 = auto)")
        if self.step_timeout_s <= 0:
            raise ConfigurationError("step_timeout_s must be > 0")


@dataclass
class MultiCellReport:
    """What one coordinated multi-cell run produced, block-wide.

    ``workers`` and ``degraded`` are execution metadata — *how* the run
    was driven, not what it computed — and are excluded from the
    bit-identity contract between the sequential and parallel modes.
    """

    design: str
    cells: dict[int, SessionReport]     # keyed by AP index
    counters: dict[str, float]
    elapsed_s: float = 0.0
    workers: int = 1
    degraded: bool = False

    @property
    def total_delivered(self) -> int:
        return sum(r.total_delivered for r in self.cells.values())

    @property
    def timed_out_cells(self) -> int:
        return sum(1 for r in self.cells.values() if r.timed_out)

    @property
    def samples_elapsed(self) -> int:
        """Block time: the latest cell's elapsed medium time."""
        return max((r.samples_elapsed for r in self.cells.values()),
                   default=0)

    @property
    def max_resident_samples(self) -> float:
        """Sum of per-cell resident-sample peaks (the memory bound)."""
        return sum(r.counters["max_resident_samples"]
                   for r in self.cells.values())

    def throughput(self) -> float:
        """Block throughput: the sum of per-cell throughputs (cells are
        parallel media; each is normalized by its own elapsed time)."""
        return sum(r.throughput() for r in self.cells.values())


@dataclass
class _CellRuntime:
    """One cell's live state inside the coordinator."""

    index: int                          # position in the cell list
    plan: object                        # CellPlan
    session: LinkSession
    engine: EventEngine
    # name -> (global client index, SNR at the serving AP)
    lookup: dict[str, tuple[int, float]] = field(default_factory=dict)
    # Waveforms scheduled during the current window:
    # (offset, waveform, global client index, home-link snr_db).
    window: list = field(default_factory=list)
    report: SessionReport | None = None


def apply_injection(session, engine, offset: int, wave, scale,
                    counters: dict[str, float]) -> None:
    """Inject ``wave * scale`` at *offset* into one victim cell.

    The one true injection path, shared by the sequential coordinator
    and the parallel cell workers so their accounting (and their float
    arithmetic) cannot drift apart: clip accounting, skip-vs-live
    counters, and the forced chunk coverage that makes the victim
    engine synthesize what it would otherwise skip symbolically.
    """
    air = session.air
    clipped_before = air.samples_clipped
    lo, end = air.inject(offset, wave * scale)
    counters["samples_clipped"] += air.samples_clipped - clipped_before
    if end <= lo:
        counters["injections_skipped"] += 1
        return
    counters["injections"] += 1
    counters["samples_injected"] += end - lo
    engine.cover_air(lo, end)


class MultiCellSession:
    """Drive every cell of a deployment to completion, coupled.

    *cells* pairs each :class:`~repro.testbed.deployment.CellPlan` with
    a ready-built :class:`LinkSession` whose clients carry the plan's
    names and serving-AP SNRs (see
    ``repro.runner.builders.build_cell_session``).

    With ``config.workers != 1`` the block is stepped by a pool of
    persistent cell-worker processes (:mod:`repro.link.parallel`); a
    hung or crashed worker degrades the run to sequential stepping with
    identical results (the parent's sessions are never mutated until a
    mode commits).
    """

    def __init__(self, deployment, cells, *,
                 config: MultiCellConfig | None = None,
                 rng: np.random.Generator | None = None) -> None:
        if not cells:
            raise ConfigurationError(
                "multi-cell session needs at least one cell")
        self.deployment = deployment
        self.config = config or MultiCellConfig()
        # Coordinator randomness: a single entropy draw that keys the
        # fresh carrier phase of every injected cross-cell waveform (a
        # different propagation path than the home link realized). The
        # phases themselves come from SeedSequences keyed by
        # (window, src AP, dst AP, transmission seq), so they are
        # independent of cell iteration order — and of execution mode.
        self.rng = rng or np.random.default_rng(0)
        self._phase_entropy = int(self.rng.integers(1 << 63))
        self.cells: list[_CellRuntime] = []
        seen = set()
        for plan, session in cells:
            if plan.ap in seen:
                raise ConfigurationError(
                    f"duplicate cell for AP {plan.ap}")
            seen.add(plan.ap)
            lookup = {}
            for state in session.clients:
                name = state.client.name
                lookup[name] = (plan.client_index(name),
                                state.client.snr_db)
            self.cells.append(_CellRuntime(
                index=len(self.cells), plan=plan, session=session,
                engine=EventEngine(session), lookup=lookup))
        # The shared horizon rides the largest chunk size in the block.
        chunk = max(rt.session.config.chunk_samples for rt in self.cells)
        self.horizon = self.config.horizon_chunks * chunk
        self.counters: dict[str, float] = {
            "windows": 0, "injections": 0, "injections_skipped": 0,
            "samples_injected": 0, "samples_clipped": 0,
        }
        # Victim prefilter: for every transmitting client, the cells
        # whose AP hears it above the interference floor — resolved
        # once from the deployment SNR matrix instead of per waveform.
        floor = self.config.interference_floor_db
        self._victims: dict[int, tuple[tuple[int, float], ...]] = {}
        for src in self.cells:
            for client, _snr_home in src.lookup.values():
                hearers = []
                for dst in self.cells:
                    if dst.index == src.index:
                        continue
                    snr_vic = float(self.deployment.ap_client_snr(
                        dst.plan.ap, client))
                    if snr_vic >= floor:
                        hearers.append((dst.index, snr_vic))
                self._victims[client] = tuple(hearers)
        # Set when a parallel run degraded to sequential (diagnostics).
        self.degrade_reason: str | None = None

    # ------------------------------------------------------------------
    # Exchange planning (shared by the sequential and parallel modes)
    # ------------------------------------------------------------------
    def _injected_phase(self, window: int, src_ap: int, dst_ap: int,
                        seq: int) -> float:
        """The carrier phase of one cross-cell injection, keyed — not
        drawn from a shared stream — so any evaluation order (or
        process) produces the same value."""
        sequence = np.random.SeedSequence(
            entropy=self._phase_entropy,
            spawn_key=(int(window), int(src_ap), int(dst_ap), int(seq)))
        return float(np.random.default_rng(sequence)
                     .uniform(0.0, 2.0 * np.pi))

    def _iter_exchange(self, window: int, meta, live_mask):
        """Yield ``(src_idx, seq, dst_idx, offset, scale)`` in canonical
        order: source cells in block order, each source's transmissions
        in schedule order, victims in block order.

        ``meta[src_idx]`` is that cell's window metadata — a sequence of
        ``(offset, global client index, home snr_db)`` — which is all
        the planner needs; the waveform samples themselves stay wherever
        the executing mode keeps them (in-process lists, or the shared
        waveform arena).
        """
        for src_idx, entries in enumerate(meta):
            src_ap = self.cells[src_idx].plan.ap
            for seq, (offset, client, snr_home) in enumerate(entries):
                for dst_idx, snr_vic in self._victims.get(client, ()):
                    if not live_mask[dst_idx]:
                        continue
                    # Amplitude re-scaled from the home link to the
                    # cross link; fresh phase for the different path.
                    dst_ap = self.cells[dst_idx].plan.ap
                    scale = 10.0 ** ((snr_vic - snr_home) / 20.0) \
                        * np.exp(1j * self._injected_phase(
                            window, src_ap, dst_ap, seq))
                    yield src_idx, seq, dst_idx, offset, scale

    def _exchange(self, live: list[_CellRuntime]) -> None:
        """Inject every window-scheduled waveform into the other cells
        whose AP hears its transmitter above the interference floor."""
        window = int(self.counters["windows"])
        live_mask = [rt in live for rt in self.cells]
        meta = [[(offset, client, snr_home)
                 for offset, _wave, client, snr_home in rt.window]
                for rt in self.cells]
        for src_idx, seq, dst_idx, offset, scale in \
                self._iter_exchange(window, meta, live_mask):
            wave = self.cells[src_idx].window[seq][1]
            dst = self.cells[dst_idx]
            apply_injection(dst.session, dst.engine, offset, wave,
                            scale, self.counters)
        for rt in self.cells:
            rt.window.clear()

    def _aligned_window_end(self, window_end: int,
                            pending: list[int]) -> int:
        """Advance to the window containing the earliest pending event,
        so a block-wide idle span costs one iteration, not one per
        horizon. Shared verbatim with the parallel coordinator."""
        window_end += self.horizon
        if pending:
            aligned = (min(pending) // self.horizon) * self.horizon
            window_end = max(window_end, aligned + self.horizon)
        return window_end

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def effective_workers(self) -> int:
        """The worker-process count ``run`` will actually use."""
        workers = self.config.workers
        if workers == 0:
            workers = len(self.cells)
        return max(1, min(workers, len(self.cells)))

    def run(self) -> MultiCellReport:
        workers = self.effective_workers()
        if workers > 1:
            from repro.link import parallel
            try:
                return parallel.run_parallel(self, workers)
            except parallel.ParallelDegraded as exc:
                # The pool is gone but this process's sessions were
                # never stepped; rerun the whole block sequentially —
                # bit-identical by construction, just slower.
                self.degrade_reason = str(exc)
                return self._run_sequential(workers=workers,
                                            degraded=True)
        return self._run_sequential()

    def _run_sequential(self, *, workers: int = 1,
                        degraded: bool = False) -> MultiCellReport:
        started = time.perf_counter()
        for rt in self.cells:
            recorder = self._make_recorder(rt)
            rt.session.air.on_schedule = recorder
            rt.engine.start()
        live = [rt for rt in self.cells if not rt.engine.finished]
        for rt in self.cells:
            if rt.engine.finished and rt.report is None:
                rt.report = rt.engine.finish(started)
        window_end = 0
        while live:
            self.counters["windows"] += 1
            pending = [t for t in (rt.engine.next_time() for rt in live)
                       if t is not None]
            window_end = self._aligned_window_end(window_end, pending)
            for rt in live:
                if not rt.engine.step_until(window_end):
                    rt.report = rt.engine.finish(started)
            # Exchange after every cell reached the boundary — including
            # the final window of a cell that just finished, whose last
            # transmissions still interfere with its neighbours.
            live = [rt for rt in self.cells if rt.report is None]
            self._exchange(live)
        for rt in self.cells:
            rt.session.air.on_schedule = None
        return MultiCellReport(
            design=self.cells[0].session.design,
            cells={rt.plan.ap: rt.report for rt in self.cells},
            counters=dict(self.counters),
            elapsed_s=time.perf_counter() - started,
            workers=workers,
            degraded=degraded,
        )

    def _make_recorder(self, rt: _CellRuntime):
        def record(transmission, waveform) -> None:
            client, snr_home = rt.lookup[transmission.label]
            rt.window.append(
                (transmission.offset, waveform, client, snr_home))
        return record
