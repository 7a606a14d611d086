"""Multi-tenant cell scheduler: admission, DRR fairness, single-flight.

The scheduler owns the path from "job accepted" to "row delivered":

* **Admission control** — each tenant may own at most
  ``max_queued_cells`` queued cells; a submit that would exceed it is
  rejected with a structured ``admission-rejected`` error carrying
  ``retry_after_s`` (estimated from the live per-cell service rate), so
  clients back off instead of deepening an unbounded queue.
* **Deficit round robin** — each dispatch round credits every backlogged
  tenant ``quantum`` cells and drains up to its deficit, so a tenant
  submitting a 1000-cell grid cannot starve one submitting 8 cells:
  over any window both make progress within ``quantum`` of equal share.
* **Single-flight dedup** — cells are identified by their journal
  content address (config x trace x scheme x code salt).  A cell
  already queued or executing gets *waiters attached*, never a second
  execution; with the shared :class:`ResultCache` as artifact store,
  any tenant's result is every tenant's cache hit.
* **Blocking work stays off the event loop** — cell execution, cache
  writes, and fsync'd journal appends all run in executor threads /
  the supervised worker pool; the asyncio side only routes completions
  (enforced by simlint SL015).

Execution is batched: each round selects up to ``workers`` cells
(across tenants, in DRR order) and runs them through
:func:`~repro.parallel.engine.run_cells`, the runner
:meth:`SweepEngine.run` uses, and stamps stored rows with the engine's
:func:`~repro.parallel.engine.cell_meta` — so rows, deadlines, retries,
failure rows and journal records match a serial run of the same grid.
Every batch runs on one supervised worker pool that lives as long as
the scheduler (its workers start with the first supervised batch and
stop at :meth:`Scheduler.close`), and each cell is persisted and routed
to its waiters the moment it lands, not when its batch ends.
"""

from __future__ import annotations

import asyncio
import dataclasses
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from functools import partial

from repro.obs import MetricRegistry
from repro.parallel.engine import (
    CellError,
    PlannedCell,
    cell_meta,
    cell_supervisor,
    run_cells,
)
from repro.parallel.journal import SweepJournal
from repro.parallel.resultcache import ResultCache, code_salt
from repro.parallel.supervisor import RetryPolicy
from repro.service.jobs import Job
from repro.service.protocol import E_ADMISSION, ProtocolError

__all__ = [
    "CellWork",
    "Scheduler",
    "TenantState",
]


@dataclass
class CellWork:
    """One unique cell in flight, with every (job, index) waiting on it."""

    planned: PlannedCell       # journal_key is the single-flight key
    tenant: str                # owning tenant for queue accounting
    waiters: list[tuple[Job, int]] = field(default_factory=list)


@dataclass
class TenantState:
    """Per-tenant DRR queue state."""

    name: str
    queue: deque = field(default_factory=deque)
    deficit: float = 0.0


class Scheduler:
    """Fair, deduplicating dispatcher onto the supervised worker layer.

    All mutable scheduling state (tenant queues, the in-flight map, job
    bookkeeping) is touched only from the event loop; executor threads
    see immutable planned cells and the thread-safe journal/cache appenders.
    """

    def __init__(
        self,
        *,
        cache: ResultCache | None,
        cell_journal: SweepJournal | None,
        workers: int = 1,
        max_queued_cells: int = 512,
        quantum: float = 1.0,
        retry: RetryPolicy | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if quantum <= 0:
            raise ValueError("quantum must be > 0")
        self.cache = cache
        self.cell_journal = cell_journal
        self.journal_rows: dict[str, dict] = (
            cell_journal.load() if cell_journal is not None else {}
        )
        self.workers = int(workers)
        self.max_queued_cells = int(max_queued_cells)
        self.quantum = float(quantum)
        self.retry = retry if retry is not None else RetryPolicy()
        #: the warm worker pool every batch runs on (see :meth:`close`)
        self._pool = cell_supervisor(
            workers=self.workers, retry=self.retry, name="service"
        )
        self.tenants: dict[str, TenantState] = {}
        #: round-robin FIFO of backlogged tenants; a tenant rejoins at
        #: the tail after service, so small batches resume where the
        #: previous one stopped instead of restarting from tenant #1.
        self._active: deque[str] = deque()
        self.inflight: dict[str, CellWork] = {}
        self.metrics = MetricRegistry()
        self._m = self.metrics.scope("service")
        self._wake = asyncio.Event()
        self._stopping = False
        self._idle = asyncio.Event()
        self._idle.set()
        self._journal_lock = threading.Lock()
        self._ema_cell_s: float | None = None
        self._salt = cache.salt if cache is not None else code_salt()
        #: server hook fired once per job reaching a terminal state
        self.on_job_complete = None

    # ------------------------------------------------------------------
    # Admission + enqueue (called by the server's submit handler).
    # ------------------------------------------------------------------
    def resolve_planned(self, planned) -> list[tuple[object, dict | None]]:
        """Blocking phase of a submit: cache / journal lookups.

        Runs in an executor thread (file reads + fsync'd journal
        appends must not block the event loop).  Returns
        ``(planned_cell, row_or_None)`` pairs; a cache hit is also
        copied into the cell journal so a later restart resumes from
        the journal alone.
        """
        out = []
        for pc in planned:
            row = self.journal_rows.get(pc.journal_key)
            if row is None and self.cache is not None and pc.cache_key:
                row = self.cache.get(pc.cache_key)
                if row is not None:
                    self._journal_row(pc, row)
            out.append((pc, row))
        return out

    def queued_cells(self, tenant: str) -> int:
        ts = self.tenants.get(tenant)
        return len(ts.queue) if ts is not None else 0

    def attach(self, job: Job, resolved, *, admit: bool = True) -> None:
        """Event-loop phase of a submit: admission check + fair enqueue.

        Raises :class:`ProtocolError` (``admission-rejected``) before
        mutating anything if the tenant's queue would overflow.
        Deduped cells (attached to another tenant's in-flight work)
        cost the submitter no queue budget — they add no execution.
        ``admit=False`` skips the check (restart recovery of jobs that
        were already accepted once).
        """
        fresh: list = []
        immediate: list = []
        for pc, row in resolved:
            if row is None:
                # A completion may have landed between the resolve
                # phase and now; the in-memory journal view is current.
                row = self.journal_rows.get(pc.journal_key)
            if row is not None:
                immediate.append((pc, row))
            else:
                fresh.append(pc)
        new_work = [
            pc for pc in fresh if pc.journal_key not in self.inflight
        ]
        ts = self.tenants.setdefault(job.tenant, TenantState(job.tenant))
        if admit and len(ts.queue) + len(new_work) > self.max_queued_cells:
            raise ProtocolError(
                E_ADMISSION,
                f"tenant {job.tenant!r} would have "
                f"{len(ts.queue) + len(new_work)} queued cells "
                f"(limit {self.max_queued_cells})",
                retry_after_s=self.eta_s(len(ts.queue)),
            )
        for pc, row in immediate:
            job.rows[pc.index] = row
            job.cached_cells += 1
            self._m.counter("cells_cached").inc(1)
        for pc in fresh:
            work = self.inflight.get(pc.journal_key)
            if work is not None:
                work.waiters.append((job, pc.index))
                job.deduped_cells += 1
                self._m.counter("cells_deduped").inc(1)
                continue
            work = CellWork(
                planned=pc,
                tenant=job.tenant,
                waiters=[(job, pc.index)],
            )
            self.inflight[pc.journal_key] = work
            ts.queue.append(work)
            job.executed_cells += 1
        if ts.queue and job.tenant not in self._active:
            self._active.append(job.tenant)
        self._m.counter("jobs_submitted").inc(1)
        if job.state == "queued" and job.done < job.total:
            job.state = "running"
        self._finish_if_done(job)
        if self.inflight:
            self._idle.clear()
        self._wake.set()

    def cancel_job(self, job: Job) -> int:
        """Withdraw a job's queued cells; shared cells lose one waiter.

        Cells already executing finish (their row still lands in the
        journal/cache for everyone else); returns how many queued cells
        were removed outright.
        """
        removed = 0
        for ts in self.tenants.values():
            kept: deque = deque()
            for work in ts.queue:
                work.waiters = [(j, i) for j, i in work.waiters if j is not job]
                if work.waiters:
                    kept.append(work)
                else:
                    self.inflight.pop(work.planned.journal_key, None)
                    removed += 1
            ts.queue = kept
        for work in self.inflight.values():
            work.waiters = [(j, i) for j, i in work.waiters if j is not job]
        return removed

    # ------------------------------------------------------------------
    # DRR selection.
    # ------------------------------------------------------------------
    def _select_batch(self, n: int) -> list[CellWork]:
        """Up to ``n`` cells in deficit-round-robin order across tenants.

        The active FIFO persists across calls: a tenant served this
        batch rejoins at the tail, so even ``n=1`` batches rotate over
        every backlogged tenant instead of restarting from the first —
        over any window each backlogged tenant's service stays within
        one ``quantum`` of its equal share.
        """
        batch: list[CellWork] = []
        while len(batch) < n and self._active:
            name = self._active.popleft()
            ts = self.tenants.get(name)
            if ts is None or not ts.queue:
                if ts is not None:
                    ts.deficit = 0.0  # classic DRR: no banked credit when idle
                continue
            ts.deficit += self.quantum
            while ts.deficit >= 1.0 and ts.queue and len(batch) < n:
                batch.append(ts.queue.popleft())
                ts.deficit -= 1.0
            if ts.queue:
                self._active.append(name)  # still backlogged: back of the line
            else:
                ts.deficit = 0.0
        return batch

    # ------------------------------------------------------------------
    # Dispatch loop.
    # ------------------------------------------------------------------
    async def run(self) -> None:
        """Dispatch batches until :meth:`stop`; blocking work in threads.

        The executor thread hands each completion back through
        ``call_soon_threadsafe`` as soon as it is persisted, so waiters
        see a row while the rest of its batch is still running.
        """
        loop = asyncio.get_running_loop()
        route = partial(loop.call_soon_threadsafe, self._complete)
        while True:
            batch = self._select_batch(max(1, self.workers))
            if not batch:
                if not self.inflight:
                    self._idle.set()
                if self._stopping:
                    return
                self._wake.clear()
                await self._wake.wait()
                continue
            await loop.run_in_executor(None, self._run_batch, batch, route)

    def stop(self) -> None:
        """Finish queued work, then let :meth:`run` return."""
        self._stopping = True
        self._wake.set()

    def close(self) -> None:
        """Stop the worker pool (blocking; call after :meth:`run` returned)."""
        self._pool.close()

    async def wait_idle(self) -> None:
        """Block until no cell is queued or executing (drain barrier)."""
        await self._idle.wait()

    # ------------------------------------------------------------------
    # Batch execution (executor thread; blocking by design).
    # ------------------------------------------------------------------
    def _run_batch(self, batch: list[CellWork], route=None) -> list[tuple]:
        """Execute a batch, persisting each success as it lands.

        ``route``, when given, is called with ``(work, kind, outcome,
        cell_s)`` for every completion once it is durable; ``cell_s`` is
        the seconds from batch start to that cell's result.  Returns the
        ``(work, kind, outcome)`` completions in completion order.
        """
        start = time.monotonic()
        out: list[tuple] = []
        planned = [work.planned for work in batch]
        for pos, value in run_cells(planned, self._pool):
            work = batch[pos]
            outcome = dataclasses.asdict(value)
            if isinstance(value, CellError):
                kind = "error"
            else:
                kind = "row"
                pc = work.planned
                if self.cache is not None and pc.cache_key is not None:
                    meta = cell_meta(pc.cell, pc.lane, self._salt)
                    self.cache.put(pc.cache_key, outcome, meta=meta)
                self._journal_row(pc, outcome)
            out.append((work, kind, outcome))
            if route is not None:
                route(work, kind, outcome, time.monotonic() - start)
        return out

    def _journal_row(self, pc: PlannedCell, row: dict) -> None:
        """Thread-safe append of a completed cell to the shared journal."""
        self.journal_rows[pc.journal_key] = row
        if self.cell_journal is None:
            return
        meta = cell_meta(pc.cell, pc.lane, self._salt)
        with self._journal_lock:
            self.cell_journal.append(pc.journal_key, row, meta=meta)

    # ------------------------------------------------------------------
    # Completion routing (event loop).
    # ------------------------------------------------------------------
    def _complete(
        self, work: CellWork, kind: str, outcome: dict, cell_s: float
    ) -> None:
        self._note_cell_seconds(cell_s)
        pc = work.planned
        self.inflight.pop(pc.journal_key, None)
        self._m.counter(
            "cells_fastpath" if pc.lane == "fastpath" else "cells_des"
        ).inc(1)
        if kind == "error":
            self._m.counter("cells_failed").inc(1)
        else:
            self._m.counter("cells_executed").inc(1)
        for job, index in work.waiters:
            if job.finished:
                continue
            if kind == "error":
                job.errors[index] = outcome
            else:
                job.rows[index] = outcome
            self._emit(job, "progress")
            self._finish_if_done(job)

    def _finish_if_done(self, job: Job) -> None:
        if not job.finished and job.done >= job.total:
            job.state = "done"
            self._m.counter("jobs_done").inc(1)
            self._emit(job, "done")
            if self.on_job_complete is not None:
                self.on_job_complete(job)

    def finish_job(self, job: Job) -> None:
        """Terminal transition driven by the server (cancel): notify all.

        The caller sets ``job.state`` first; this emits the final event
        to watchers and fires the completion hook exactly once.
        """
        self._m.counter("jobs_cancelled").inc(1)
        self._emit(job, "cancelled")
        if self.on_job_complete is not None:
            self.on_job_complete(job)

    def _emit(self, job: Job, event: str) -> None:
        """Push one progress event to every live watcher of ``job``."""
        payload = dict(
            job.snapshot(
                queue_position=self.queue_position(job),
                eta_s=self.eta_s(job.total - job.done),
            ),
            event=event,
            counters=self.counter_values(),
        )
        for queue in list(job.subscribers):
            try:
                queue.put_nowait(payload)
            except asyncio.QueueFull:
                job.subscribers.remove(queue)  # slow watcher: drop the stream

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    def queue_position(self, job: Job) -> int:
        """Cells ahead of the job's first queued cell in its tenant queue."""
        ts = self.tenants.get(job.tenant)
        if ts is None:
            return 0
        for pos, work in enumerate(ts.queue):
            if any(j is job for j, _ in work.waiters):
                return pos
        return 0

    def _note_cell_seconds(self, cell_s: float) -> None:
        """Fold one cell's execution seconds into the service-rate EMA."""
        if self._ema_cell_s is None:
            self._ema_cell_s = cell_s
        else:
            self._ema_cell_s = 0.7 * self._ema_cell_s + 0.3 * cell_s

    def eta_s(self, remaining_cells: int) -> float:
        """Estimated seconds until ``remaining_cells`` more completions.

        Per-cell execution seconds times the cells, over ``workers``
        parallel workers.
        """
        per_cell_s = self._ema_cell_s if self._ema_cell_s is not None else 0.5
        return round(
            per_cell_s * max(0, remaining_cells) / max(1, self.workers), 3
        )

    def counter_values(self) -> dict[str, int]:
        """Current ``repro.obs`` service counters (progress-event feed)."""
        return {
            name.split(".", 1)[1]: int(value)
            for name, value in self.metrics.to_dict().items()
            if name.startswith("service.") and isinstance(value, (int, float))
        }
