"""Process-parallel multi-cell execution: the cell-worker plumbing.

The coupled block's one coordinator loop
(``MultiCellSession._drive``) steps a list of
:class:`~repro.link.multicell.CellGroup` objects through a message protocol
(``start``, ``step``, ``inject``, ``finish``). With
``MultiCellConfig.workers == 1`` the list holds one in-process group.
This module supplies the other case: a persistent pool of **cell
workers**, each running one group behind a pipe. Each cell is pinned
to one worker for its lifetime (its session, air and rng state never
move); the parent sends ``step`` to every worker before collecting any
reply, so workers step their cells to each horizon boundary
concurrently, and keeps all exchange *planning*. Window waveforms
travel pickled over the pipes: up in the ``stepped`` replies, down as
each victim's ordered ``(offset, wave, scale)`` list in ``inject``.

Because the exchange is order-independent (phases are keyed, not drawn
sequentially) and each victim's injections are applied in the canonical
order, the parallel block is **bit-identical** to the in-process one at
any worker count — same flows, same counters, same float arithmetic.

Resilience follows :class:`repro.runner.resilience.PoolSupervisor`'s
watchdog idiom rather than its pool: every barrier wait carries
``MultiCellConfig.step_timeout_s``; a worker that hangs (e.g. a
``chaos.FaultSpec`` injected hang), crashes, or reports an error raises
:class:`ParallelDegraded`, the pool is torn down, and the caller reruns
the block **in process from the parent's untouched sessions** — workers
only ever mutate their own (forked or pickled) copies, so degradation
costs wall-clock, never correctness. The loop sends no ``inject`` until
every worker has answered ``step``, so a worker that hangs mid-step
trips the watchdog before any waveform is sent down to a worker.
"""

from __future__ import annotations

import multiprocessing

from repro.link.multicell import CellGroup, MultiCellReport

__all__ = ["ParallelDegraded", "run_parallel"]


class ParallelDegraded(RuntimeError):
    """The parallel mode gave up (hang/crash/error); rerun in process
    from the parent's pristine sessions."""


def _worker_main(conn, cells: list, faults) -> None:
    """One pinned cell worker: a :class:`CellGroup` behind a pipe.

    Answers every protocol message with the group's reply; ``("stop",)``
    ends the loop. Any exception becomes an ``("error", repr)`` reply,
    so the parent degrades the run instead of deadlocking the barrier.
    """
    before_step = None
    if faults is not None and not getattr(faults, "is_empty", True):
        # Runtime import: repro.link must not pull repro.runner in at
        # module load from the worker's unpickling path.
        from repro.runner.chaos import ChaosInjector
        before_step = ChaosInjector(faults).pre_trial
    try:
        group = CellGroup(cells, before_step)
        while True:
            message = conn.recv()
            if message[0] == "stop":
                return
            try:
                reply = group.handle(message)
            except Exception as exc:
                reply = ("error", repr(exc))
            conn.send(reply)
    except (EOFError, OSError):
        return                          # the parent is gone
    finally:
        conn.close()


class _RemoteGroup:
    """The parent's proxy for one worker's group: the same ``send`` /
    ``recv`` as an in-process :class:`CellGroup`, with the watchdog."""

    def __init__(self, wid: int, process, conn, cell_indices: list[int],
                 timeout: float) -> None:
        self.id = wid
        self.process = process
        self.conn = conn
        self.cell_indices = cell_indices
        self.timeout = timeout

    def send(self, message: tuple) -> None:
        try:
            self.conn.send(message)
        except (BrokenPipeError, OSError) as exc:
            raise ParallelDegraded(
                f"cell worker {self.id} unreachable: {exc!r}") from exc

    def recv(self, expected: str):
        if not self.conn.poll(self.timeout):
            raise ParallelDegraded(
                f"cell worker {self.id} unresponsive at the "
                f"'{expected}' barrier (> {self.timeout:.1f}s)")
        try:
            tag, payload = self.conn.recv()
        except (EOFError, OSError) as exc:
            raise ParallelDegraded(
                f"cell worker {self.id} died: {exc!r}") from exc
        if tag == "error":
            raise ParallelDegraded(
                f"cell worker {self.id} failed: {payload}")
        if tag != expected:
            raise ParallelDegraded(
                f"cell worker {self.id} answered {tag!r} at the "
                f"'{expected}' barrier")
        return payload


class _CellWorkerPool:
    """The pinned cell workers: spawn and shutdown."""

    def __init__(self, mc, n_workers: int) -> None:
        ctx = multiprocessing.get_context()
        self.groups: list[_RemoteGroup] = []
        try:
            for wid in range(n_workers):
                # Cells pinned round-robin: cell i lives on worker
                # i % N for the whole run.
                cells = [rt for rt in mc.cells
                         if rt.index % n_workers == wid]
                parent_conn, child_conn = ctx.Pipe()
                process = ctx.Process(
                    target=_worker_main,
                    args=(child_conn, cells, mc.config.faults),
                    daemon=True)
                process.start()
                child_conn.close()
                self.groups.append(_RemoteGroup(
                    wid, process, parent_conn,
                    [rt.index for rt in cells], mc.config.step_timeout_s))
        except Exception:
            self.shutdown()
            raise

    def shutdown(self) -> None:
        """Tear everything down; never raises."""
        for group in self.groups:
            try:
                group.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for group in self.groups:
            process = group.process
            process.join(timeout=1.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
            if process.is_alive():  # pragma: no cover - stubborn
                process.kill()
                process.join(timeout=1.0)
            try:
                group.conn.close()
            except OSError:  # pragma: no cover - already gone
                pass


def run_parallel(mc, n_workers: int) -> MultiCellReport:
    """Run *mc*'s block on *n_workers* pinned cell workers.

    Bit-identical to the in-process run. Raises
    :class:`ParallelDegraded` — with the pool already torn down and
    ``mc`` untouched — when any worker hangs, dies, or reports
    an error; the caller falls back to in-process stepping.
    """
    pool = _CellWorkerPool(mc, n_workers)
    try:
        return mc._drive(pool.groups, workers=n_workers)
    except ParallelDegraded:
        raise
    except Exception as exc:
        raise ParallelDegraded(
            f"parallel coordinator failed: {exc!r}") from exc
    finally:
        pool.shutdown()
