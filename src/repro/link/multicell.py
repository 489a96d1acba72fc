"""Multi-cell coordinator: one LinkSession per AP, one shared horizon.

Scales the closed-loop session from one AP to a city block: every cell
of a :class:`~repro.testbed.deployment.Deployment` runs its own
:class:`~repro.link.session.LinkSession` (own clients, own
:class:`~repro.link.air.ContinuousAir`, own AP, own event loop), and a
coordinator advances all sessions in lockstep windows of a common
*event horizon* (:data:`HORIZON_CHUNKS` air chunks). At each horizon
boundary the cells exchange inter-cell interference: every waveform
scheduled during the window is injected into each other cell whose AP
hears that client (the one hearing rule,
:meth:`~repro.testbed.deployment.Deployment.interferers`), scaled by
the cross-link/home-link SNR ratio with a fresh carrier phase (the
cross channel is a different path), via :meth:`ContinuousAir.inject`.

One coordinator loop (:meth:`MultiCellSession._drive`) serves every
execution mode. It plans the exchange; the cells themselves are stepped
by :class:`CellGroup` objects that speak a four-command protocol and
call each session's ``start``/``step_until``/``finish`` directly. With
``workers == 1`` one group runs in this process; otherwise each cell
worker of :mod:`repro.link.parallel` runs one behind its pipe.

The exchange is **order-independent by construction**: every injected
carrier phase is derived from a :class:`numpy.random.SeedSequence`
keyed by ``(window, src AP, dst AP, transmission seq)`` rather than
drawn from a shared sequential stream, and the victim set of each
transmitter is precomputed once from the deployment. That
makes the coordinator's output a pure function of the per-cell sessions
plus the keys — which is what lets the process-parallel execution mode
(``MultiCellConfig.workers > 1``, see :mod:`repro.link.parallel`)
produce *bit-identical* reports at any worker count.

Two deliberate approximations, both consequences of exchanging at
horizon boundaries rather than per sample:

- interference that reaches into air a victim cell already emitted is
  clipped at the victim's cursor (counted in ``samples_clipped``);
  a shorter horizon would tighten the exchange;
- cross-cell *carrier sense* is not modeled — by construction a
  deployment's cells are separated beyond carrier-sense range, so
  cross-cell energy appears at the victim **AP** as decode-degrading
  interference, not at its clients as channel-busy.

Each session keeps its own runaway cap, so a stuck cell times out alone
without stalling the block.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.link.session import CHUNK_SAMPLES, LinkSession, SessionReport

__all__ = ["HORIZON_CHUNKS", "CellGroup", "MultiCellConfig",
           "MultiCellReport", "MultiCellSession", "apply_injection"]

# Horizon window length, in air chunks: sessions run independently
# inside a window and exchange interference at its end.
HORIZON_CHUNKS = 4


@dataclass(frozen=True)
class MultiCellConfig:
    """Knobs of the coordinator."""

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
    """One cell of the block, as the coordinator plans it."""

    index: int                          # position in the cell list
    plan: object                        # CellPlan
    session: LinkSession
    # name -> (global client index, SNR at the serving AP)
    lookup: dict[str, tuple[int, float]] = field(default_factory=dict)


def apply_injection(session, offset: int, wave, scale,
                    counters: dict[str, float]) -> None:
    """Inject ``wave * scale`` at *offset* into one victim cell.

    Clip accounting, skip-vs-live counters, and the forced chunk
    coverage that makes the victim session synthesize what it would
    otherwise skip symbolically. :meth:`CellGroup.inject` is its one
    caller, in-process or inside a cell worker.
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
    session.cover_air(lo, end)


# Command -> reply tag of the cell-group protocol.
_REPLIES = {"start": "ready", "step": "stepped", "inject": "injected",
            "finish": "reports"}


class CellGroup:
    """The cells one process steps: the cell side of the coordinator.

    The coordinator talks to every group through one message protocol,
    ``send((command, *args))`` then ``recv(tag)``:

    - ``start`` -> ``ready``: ``{cell: next event time}`` of live cells;
    - ``step(window, window_end)`` -> ``stepped``: ``{cell: (alive,
      window)}`` for every cell that was live, where *window* lists the
      waveforms scheduled since the last step as ``(offset, wave, global
      client index, home snr_db)`` entries;
    - ``inject({cell: [(offset, wave, scale), ...]})`` -> ``injected``:
      ``({cell: next event time}, counter deltas)``;
    - ``finish`` -> ``reports``: ``{cell: SessionReport}``.

    In process (``workers == 1`` and the degraded rerun) :meth:`send`
    handles the message at once and :meth:`recv` hands back the reply;
    a cell worker (:mod:`repro.link.parallel`) runs :meth:`handle`
    behind its pipe. *before_step* (a chaos hook, worker side only) is
    called with ``(cell, window)`` before each live cell steps.
    """

    def __init__(self, cells: list[_CellRuntime],
                 before_step=None) -> None:
        self.cell_indices = [rt.index for rt in cells]
        self.before_step = before_step
        self.started = time.perf_counter()
        self.sessions = {rt.index: rt.session for rt in cells}
        self.windows: dict[int, list] = {rt.index: [] for rt in cells}
        self.reports: dict[int, SessionReport] = {}
        self._reply: tuple | None = None
        for rt in cells:
            rt.session.air.on_schedule = self._recorder(rt)

    def _recorder(self, rt: _CellRuntime):
        def record(transmission, waveform) -> None:
            client, snr_home = rt.lookup[transmission.label]
            self.windows[rt.index].append(
                (transmission.offset, waveform, client, snr_home))
        return record

    # -- the in-process transport --------------------------------------
    def send(self, message: tuple) -> None:
        self._reply = self.handle(message)

    def recv(self, expected: str):
        _tag, payload = self._reply
        self._reply = None
        return payload

    def handle(self, message: tuple) -> tuple:
        """Run one protocol command; returns ``(tag, payload)``."""
        command, *args = message
        if command not in _REPLIES:
            raise ValueError(f"unknown command {command!r}")
        return _REPLIES[command], getattr(self, command)(*args)

    # -- the commands ---------------------------------------------------
    def _next_times(self) -> dict[int, int | None]:
        return {index: session.next_time()
                for index, session in self.sessions.items()
                if index not in self.reports}

    def start(self) -> dict[int, int | None]:
        for index, session in self.sessions.items():
            session.start()
            if session.finished:
                self.reports[index] = session.finish(self.started)
        return self._next_times()

    def step(self, window: int, window_end: int) -> dict:
        out = {}
        for index, session in self.sessions.items():
            if index in self.reports:
                continue
            if self.before_step is not None:
                self.before_step(index, window)
            if not session.step_until(window_end):
                self.reports[index] = session.finish(self.started)
            out[index] = (index not in self.reports, self.windows[index])
            self.windows[index] = []
        return out

    def inject(self, plan: dict[int, list]) -> tuple:
        # Integer-valued deltas: the merge order across groups cannot
        # perturb them.
        deltas = {"injections": 0, "injections_skipped": 0,
                  "samples_injected": 0, "samples_clipped": 0}
        for index, entries in plan.items():
            for offset, wave, scale in entries:
                apply_injection(self.sessions[index], offset, wave, scale,
                                deltas)
        return self._next_times(), deltas

    def finish(self) -> dict[int, SessionReport]:
        for session in self.sessions.values():
            session.air.on_schedule = None
        return dict(self.reports)


class MultiCellSession:
    """Drive every cell of a deployment to completion, coupled.

    *cells* pairs each :class:`~repro.testbed.deployment.CellPlan` with
    a ready-built :class:`LinkSession` whose clients carry the plan's
    names and serving-AP SNRs (see
    ``repro.runner.builders.build_cell_session``).

    One coordinator loop (:meth:`_drive`) steps a list of
    :class:`CellGroup` objects: a single in-process group with
    ``config.workers == 1``, one group per persistent cell-worker
    process otherwise (:mod:`repro.link.parallel`). A hung or crashed
    worker degrades the run to one in-process group with identical
    results (the parent's sessions are never mutated until a mode
    commits).
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
                lookup=lookup))
        self.horizon = HORIZON_CHUNKS * CHUNK_SAMPLES
        self.counters: dict[str, float] = {
            "windows": 0, "injections": 0, "injections_skipped": 0,
            "samples_injected": 0, "samples_clipped": 0,
        }
        # Victim prefilter: for every transmitting client, the cells
        # whose AP hears it (in block order, with the SNR there) —
        # Deployment.interferers inverted once instead of per waveform.
        hearers: dict[int, list[tuple[int, float]]] = {
            client: [] for src in self.cells
            for client, _snr_home in src.lookup.values()}
        for dst in self.cells:
            for client, snr_vic in deployment.interferers(dst.plan.ap):
                if client in hearers:
                    hearers[client].append((dst.index, snr_vic))
        self._victims: dict[int, tuple[tuple[int, float], ...]] = {
            client: tuple(heard) for client, heard in hearers.items()}
        # Set when a parallel run degraded to sequential (diagnostics).
        self.degrade_reason: str | None = None

    # ------------------------------------------------------------------
    # Exchange planning
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

    def _iter_exchange(self, window: int, windows, live_mask):
        """Yield ``(dst_idx, offset, wave, scale)`` in canonical order:
        source cells in block order, each source's transmissions in
        schedule order, victims in block order.

        ``windows[src_idx]`` is that cell's window of scheduled
        waveforms, ``(offset, wave, global client index, home snr_db)``
        entries.
        """
        for src_idx, entries in enumerate(windows):
            src_ap = self.cells[src_idx].plan.ap
            for seq, (offset, wave, client, snr_home) in \
                    enumerate(entries):
                for dst_idx, snr_vic in self._victims.get(client, ()):
                    if not live_mask[dst_idx]:
                        continue
                    # Amplitude re-scaled from the home link to the
                    # cross link; fresh phase for the different path.
                    dst_ap = self.cells[dst_idx].plan.ap
                    scale = 10.0 ** ((snr_vic - snr_home) / 20.0) \
                        * np.exp(1j * self._injected_phase(
                            window, src_ap, dst_ap, seq))
                    yield dst_idx, offset, wave, scale

    def _aligned_window_end(self, window_end: int,
                            pending: list[int]) -> int:
        """Advance to the window containing the earliest pending event,
        so a block-wide idle span costs one iteration, not one per
        horizon."""
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
                # never stepped; rerun the whole block in process —
                # bit-identical by construction, just slower.
                self.degrade_reason = str(exc)
                return self._drive([CellGroup(self.cells)], degraded=True)
        return self._drive([CellGroup(self.cells)])

    def _drive(self, groups, *, workers: int = 1,
               degraded: bool = False) -> MultiCellReport:
        """The coordinator loop: one barrier per horizon window.

        Every group is sent ``step`` before any reply is collected, so
        remote groups step concurrently, and no ``inject`` goes out
        before every group answered ``step``, so a group that hangs
        mid-step trips the worker watchdog before any waveform is sent.
        """
        started = time.perf_counter()
        owner = {index: position for position, group in enumerate(groups)
                 for index in group.cell_indices}
        # Fresh counters, committed only when this attempt finishes.
        counters = dict.fromkeys(self.counters, 0)
        # Live cells -> their earliest pending event time.
        next_times: dict[int, int | None] = {}
        for group in groups:
            group.send(("start",))
        for group in groups:
            next_times.update(group.recv("ready"))
        window_end = 0
        while next_times:
            counters["windows"] += 1
            window = counters["windows"]
            pending = [t for t in next_times.values() if t is not None]
            window_end = self._aligned_window_end(window_end, pending)
            for group in groups:
                group.send(("step", window, window_end))
            windows = [[] for _ in self.cells]
            for group in groups:
                for index, (alive, entries) in group.recv("stepped").items():
                    if not alive:
                        del next_times[index]
                    windows[index] = entries
            # Exchange after every cell reached the boundary — including
            # the final window of a cell that just finished, whose last
            # transmissions still interfere with its neighbours. Each
            # victim's injections keep the canonical order.
            live_mask = [index in next_times
                         for index in range(len(self.cells))]
            plans = [{} for _ in groups]
            for dst_idx, offset, wave, scale in \
                    self._iter_exchange(window, windows, live_mask):
                plans[owner[dst_idx]].setdefault(dst_idx, []).append(
                    (offset, wave, scale))
            for group, plan in zip(groups, plans):
                group.send(("inject", plan))
            for group in groups:
                nexts, deltas = group.recv("injected")
                next_times.update(nexts)
                for key, value in deltas.items():
                    counters[key] += value
        for group in groups:
            group.send(("finish",))
        reports = {}
        for group in groups:
            reports.update(group.recv("reports"))
        self.counters = counters
        return MultiCellReport(
            design=self.cells[0].session.design,
            cells={rt.plan.ap: reports[rt.index] for rt in self.cells},
            counters=dict(counters),
            elapsed_s=time.perf_counter() - started,
            workers=workers,
            degraded=degraded,
        )
