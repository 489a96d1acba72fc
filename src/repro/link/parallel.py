"""Process-parallel multi-cell execution: pinned cell workers, one
barrier per horizon window, waveforms exchanged over the worker pipes.

The sequential :class:`~repro.link.multicell.MultiCellSession` steps
every cell's :class:`~repro.link.events.EventEngine` inside one process,
so a 10-AP coupled block costs ~10x a single cell. This module runs the
same block on a persistent pool of **cell workers**: each cell is pinned
to one worker for its lifetime (its engine, air and rng state never
move), workers step their cells to each horizon boundary concurrently,
and the parent coordinator — which keeps all exchange *planning* —
synchronizes them at a barrier per window:

1. **step** — every worker advances its live cells to ``window_end``
   and replies with each cell's window of scheduled waveforms,
   ``(offset, wave, client, snr_home)`` entries whose samples travel
   pickled over the worker's pipe.
2. **inject** — the parent plans the exchange with
   ``MultiCellSession._iter_exchange`` (victim prefilter + keyed
   phases, canonical order) and sends each worker the ordered
   ``(offset, wave, scale)`` list for its cells; workers apply them
   through the shared :func:`~repro.link.multicell.apply_injection`
   path and reply with counter deltas and refreshed next-event times.

The parent sends no ``inject`` message until every worker has answered
``step``, so a worker that hangs mid-step trips the watchdog before any
waveform is sent down to a worker.

Because the exchange is order-independent (phases are keyed, not drawn
sequentially) and each victim's injections are applied in the canonical
sequential order, the parallel block is **bit-identical** to the
sequential coordinator at any worker count — same flows, same counters,
same float arithmetic.

Resilience follows :class:`repro.runner.resilience.PoolSupervisor`'s
watchdog idiom rather than its pool: every barrier wait carries
``MultiCellConfig.step_timeout_s``; a worker that hangs (e.g. a
``chaos.FaultSpec`` injected hang), crashes, or reports an error raises
:class:`ParallelDegraded`, the pool is torn down, and the caller reruns
the block **sequentially from the parent's untouched sessions** —
workers only ever mutate their own (forked or pickled) copies, so
degradation costs wall-clock, never correctness.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field

from repro.link.events import EventEngine
from repro.link.multicell import MultiCellReport, apply_injection

__all__ = ["ParallelDegraded", "run_parallel"]


class ParallelDegraded(RuntimeError):
    """The parallel mode gave up (hang/crash/error); rerun sequentially
    from the parent's pristine sessions."""


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
@dataclass
class _CellHost:
    """One cell living inside a worker process."""

    index: int
    lookup: dict
    session: object
    engine: EventEngine
    window: list = field(default_factory=list)
    report: object | None = None


def _make_recorder(host: _CellHost):
    def record(transmission, waveform) -> None:
        client, snr_home = host.lookup[transmission.label]
        host.window.append(
            (transmission.offset, waveform, client, snr_home))
    return record


def _worker_main(conn, cells: list, faults) -> None:
    """One pinned cell worker: owns its cells' engines start to finish.

    Protocol (parent -> worker): ``("step", window, window_end)``,
    ``("inject", {cell: [(offset, wave, scale), ...]})``, ``("finish",)``,
    ``("stop",)``. Any exception becomes an ``("error", repr)`` reply;
    the parent degrades the run instead of deadlocking the barrier.
    """
    injector = None
    if faults is not None and not getattr(faults, "is_empty", True):
        # Runtime import: repro.link must not pull repro.runner in at
        # module load from the worker's unpickling path.
        from repro.runner.chaos import ChaosInjector
        injector = ChaosInjector(faults)
    hosts: list[_CellHost] = []
    by_index: dict[int, _CellHost] = {}
    started = time.perf_counter()
    try:
        try:
            for index, lookup, session in cells:
                host = _CellHost(index=index, lookup=lookup,
                                 session=session,
                                 engine=EventEngine(session))
                session.air.on_schedule = _make_recorder(host)
                host.engine.start()
                if host.engine.finished:
                    host.report = host.engine.finish(started)
                hosts.append(host)
                by_index[index] = host
            conn.send(("ready", {
                h.index: (h.report is None,
                          h.engine.next_time() if h.report is None
                          else None)
                for h in hosts}))
        except Exception as exc:
            conn.send(("error", f"worker setup failed: {exc!r}"))
            return
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                return
            cmd = msg[0]
            if cmd == "stop":
                return
            try:
                if cmd == "step":
                    _cmd, window, window_end = msg
                    out = {}
                    for host in hosts:
                        if host.report is not None:
                            out[host.index] = (False, [])
                            continue
                        if injector is not None:
                            injector.pre_trial(host.index, window)
                        if not host.engine.step_until(window_end):
                            host.report = host.engine.finish(started)
                        out[host.index] = (host.report is None,
                                           host.window)
                        host.window = []
                    conn.send(("stepped", out))
                elif cmd == "inject":
                    plan = msg[1]
                    # Integer-valued deltas: cross-worker merge order
                    # cannot perturb them, and the merged counters
                    # match the sequential coordinator's exactly.
                    deltas = {"injections": 0, "injections_skipped": 0,
                              "samples_injected": 0,
                              "samples_clipped": 0}
                    for index, entries in plan.items():
                        host = by_index[index]
                        for offset, wave, scale in entries:
                            apply_injection(host.session, host.engine,
                                            offset, wave, scale, deltas)
                    conn.send(("injected", {
                        h.index: h.engine.next_time()
                        for h in hosts if h.report is None}, deltas))
                elif cmd == "finish":
                    for host in hosts:
                        host.session.air.on_schedule = None
                    conn.send(("reports",
                               {h.index: h.report for h in hosts}))
                else:
                    conn.send(("error", f"unknown command {cmd!r}"))
            except Exception as exc:
                try:
                    conn.send(("error", repr(exc)))
                except (BrokenPipeError, OSError):
                    return
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
@dataclass
class _Worker:
    id: int
    process: multiprocessing.Process
    conn: object
    cell_indices: list[int]


class _CellWorkerPool:
    """Parent handle on the pinned cell workers."""

    def __init__(self, mc, n_workers: int) -> None:
        self.timeout = mc.config.step_timeout_s
        # Cells pinned round-robin: cell i lives on worker i % N for
        # the whole run.
        self.owner_of = {rt.index: rt.index % n_workers
                         for rt in mc.cells}
        ctx = multiprocessing.get_context()
        self.workers: list[_Worker] = []
        try:
            for wid in range(n_workers):
                payload = [(rt.index, rt.lookup, rt.session)
                           for rt in mc.cells
                           if self.owner_of[rt.index] == wid]
                parent_conn, child_conn = ctx.Pipe()
                process = ctx.Process(
                    target=_worker_main,
                    args=(child_conn, payload, mc.config.faults),
                    daemon=True)
                process.start()
                child_conn.close()
                self.workers.append(_Worker(
                    id=wid, process=process, conn=parent_conn,
                    cell_indices=[c[0] for c in payload]))
        except Exception:
            self.shutdown()
            raise

    def _recv(self, worker: _Worker, expected: str) -> tuple:
        if not worker.conn.poll(self.timeout):
            raise ParallelDegraded(
                f"cell worker {worker.id} unresponsive at the "
                f"'{expected}' barrier (> {self.timeout:.1f}s)")
        try:
            msg = worker.conn.recv()
        except (EOFError, OSError) as exc:
            raise ParallelDegraded(
                f"cell worker {worker.id} died: {exc!r}") from exc
        if msg[0] == "error":
            raise ParallelDegraded(
                f"cell worker {worker.id} failed: {msg[1]}")
        if msg[0] != expected:
            raise ParallelDegraded(
                f"cell worker {worker.id} answered {msg[0]!r} at the "
                f"'{expected}' barrier")
        return msg

    def _broadcast(self, message: tuple) -> None:
        for worker in self.workers:
            try:
                worker.conn.send(message)
            except (BrokenPipeError, OSError) as exc:
                raise ParallelDegraded(
                    f"cell worker {worker.id} unreachable: "
                    f"{exc!r}") from exc

    def shutdown(self) -> None:
        """Tear everything down; never raises."""
        for worker in self.workers:
            try:
                worker.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for worker in self.workers:
            worker.process.join(timeout=1.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
            if worker.process.is_alive():  # pragma: no cover - stubborn
                worker.process.kill()
                worker.process.join(timeout=1.0)
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover - already gone
                pass


def run_parallel(mc, n_workers: int) -> MultiCellReport:
    """Run *mc*'s block on *n_workers* pinned cell workers.

    Bit-identical to ``mc._run_sequential()``. Raises
    :class:`ParallelDegraded` — with the pool already torn down and
    ``mc`` untouched — when any worker hangs, dies, or reports
    an error; the caller falls back to sequential stepping.
    """
    started = time.perf_counter()
    pool = _CellWorkerPool(mc, n_workers)
    try:
        try:
            return _coordinate(mc, pool, started, n_workers)
        except ParallelDegraded:
            raise
        except Exception as exc:
            raise ParallelDegraded(
                f"parallel coordinator failed: {exc!r}") from exc
    finally:
        pool.shutdown()


def _coordinate(mc, pool: _CellWorkerPool, started: float,
                n_workers: int) -> MultiCellReport:
    """The parent's barrier loop — the sequential ``run`` loop with the
    stepping and injection legs remoted to the workers."""
    n_cells = len(mc.cells)
    live: set[int] = set()
    next_map: dict[int, int] = {}
    for worker in pool.workers:
        _tag, status = pool._recv(worker, "ready")
        for index, (alive, next_time) in status.items():
            if alive:
                live.add(index)
                next_map[index] = next_time
    # Fresh counters: merged into mc only when the parallel run
    # commits, so a degraded rerun starts from a clean slate.
    counters = {key: 0 for key in mc.counters}
    window_end = 0
    while live:
        counters["windows"] += 1
        window = int(counters["windows"])
        pending = [t for t in (next_map[i] for i in sorted(live))
                   if t is not None]
        window_end = mc._aligned_window_end(window_end, pending)
        pool._broadcast(("step", window, window_end))
        windows = [[] for _ in range(n_cells)]
        for worker in pool.workers:
            _tag, stepped = pool._recv(worker, "stepped")
            for index, (alive, entries) in stepped.items():
                if not alive:
                    live.discard(index)
                    next_map.pop(index, None)
                windows[index] = entries
        # Plan the exchange exactly as the sequential coordinator
        # would, then route each victim's ordered injection list to the
        # worker that owns it.
        live_mask = [index in live for index in range(n_cells)]
        plans: dict[int, dict[int, list]] = {
            worker.id: {} for worker in pool.workers}
        for dst_idx, offset, wave, scale in \
                mc._iter_exchange(window, windows, live_mask):
            plans[pool.owner_of[dst_idx]].setdefault(dst_idx, []).append(
                (offset, wave, scale))
        for worker in pool.workers:
            worker.conn.send(("inject", plans[worker.id]))
        for worker in pool.workers:
            _tag, nexts, deltas = pool._recv(worker, "injected")
            for key, value in deltas.items():
                counters[key] += value
            next_map.update(nexts)
    pool._broadcast(("finish",))
    reports: dict[int, object] = {}
    for worker in pool.workers:
        _tag, cell_reports = pool._recv(worker, "reports")
        reports.update(cell_reports)
    if len(reports) != n_cells or any(r is None for r in reports.values()):
        raise ParallelDegraded("incomplete cell reports from workers")
    for key, value in counters.items():
        mc.counters[key] = value
    return MultiCellReport(
        design=mc.cells[0].session.design,
        cells={mc.cells[index].plan.ap: reports[index]
               for index in range(n_cells)},
        counters=dict(counters),
        elapsed_s=time.perf_counter() - started,
        workers=n_workers,
        degraded=False,
    )
