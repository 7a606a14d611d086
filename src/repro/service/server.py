"""The asyncio sweep server: accept grids, schedule cells, stream progress.

:class:`SweepService` is the long-running front door
(``tetris-write serve``).  One instance owns:

* a shared :class:`~repro.parallel.resultcache.ResultCache` (the
  artifact store every tenant hits, and the only durable store of
  completed cells: its puts are fsync'd, keyed by the engine's content
  addresses),
* the fsync'd **job journal** (submitted/done/cancelled markers) under
  ``state_dir`` — with the cache it makes a ``SIGKILL``'d server
  resumable with zero re-execution,
* the :class:`~repro.service.scheduler.Scheduler` (admission, DRR
  fairness, single-flight dedup, supervised execution).

Connection discipline (``docs/SERVICE.md``): every client-caused
failure is answered with a structured error frame; only a frame that
breaks line synchronization (over-long line) closes the connection.  A
mid-stream disconnect cancels nothing — accepted jobs keep running and
their results stay cached for any later ``status`` call.  The server
process must never die from client input.

Blocking work (planning, cache and job-journal I/O, the DES itself)
runs in executor threads or the supervised worker pool; handler
coroutines only route frames (simlint SL015 enforces this for the whole
package).
"""

from __future__ import annotations

import asyncio
from functools import partial
from pathlib import Path

from repro.parallel.resultcache import ResultCache
from repro.parallel.supervisor import RetryPolicy
from repro.service.jobs import GridSpec, Job, JobStore, job_id_for
from repro.service.protocol import (
    E_BAD_FRAME,
    E_DRAINING,
    E_FRAME_TOO_LARGE,
    E_INTERNAL,
    E_UNKNOWN_JOB,
    E_UNKNOWN_VERB,
    MAX_FRAME_BYTES,
    VERBS,
    ProtocolError,
    decode_frame,
    encode_frame,
    error_frame,
    ok_frame,
)
from repro.service.scheduler import Scheduler

__all__ = ["SweepService"]


class SweepService:
    """One server instance: jobs, scheduler, cache, job journal, connections.

    ``fsync`` makes the job journal's markers and the puts of the cache
    built under ``state_dir`` durable; a ``cache`` passed in keeps its
    own :attr:`~repro.parallel.resultcache.ResultCache.fsync`.
    """

    def __init__(
        self,
        *,
        state_dir: str | Path,
        cache: ResultCache | None = None,
        workers: int = 1,
        max_queued_cells: int = 512,
        quantum: float = 1.0,
        retry: RetryPolicy | None = None,
        fsync: bool = True,
    ) -> None:
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.cache = (
            cache
            if cache is not None
            else ResultCache(self.state_dir / "cache", fsync=fsync)
        )
        self.store = JobStore(self.state_dir / "jobs.jsonl", fsync=fsync)
        self.scheduler = Scheduler(
            cache=self.cache,
            workers=workers,
            max_queued_cells=max_queued_cells,
            quantum=quantum,
            retry=retry,
        )
        self.scheduler.on_job_complete = self._persist_done
        self.jobs: dict[str, Job] = {}
        self.draining = False
        self.drained = asyncio.Event()
        self._dispatch_task: asyncio.Task | None = None

    @property
    def salt(self) -> str:
        return self.scheduler._salt

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Start the dispatcher and resume accepted, unfinished jobs."""
        self._dispatch_task = asyncio.create_task(self.scheduler.run())
        await self._recover()

    async def _recover(self) -> None:
        """Re-plan every accepted-but-unfinished job from the job journal.

        Cells whose rows are in the cache resolve without execution
        (zero re-execution resume); only genuinely unfinished cells
        re-enter the queue.  Recovery bypasses admission — these jobs
        were already accepted once.
        """
        loop = asyncio.get_running_loop()
        pending = await loop.run_in_executor(None, self.store.pending_jobs)
        for job_id, tenant, spec in pending:
            planned = await loop.run_in_executor(
                None, partial(spec.plan, cache=self.cache)
            )
            job = Job(job_id=job_id, tenant=tenant, spec=spec, planned=planned)
            resolved = await loop.run_in_executor(
                None, self.scheduler.resolve_planned, planned
            )
            self.jobs[job_id] = job
            self.scheduler.attach(job, resolved, admit=False)

    async def shutdown(self) -> None:
        """Drain the queue, join the dispatcher, stop the worker pool."""
        self.scheduler.stop()
        if self._dispatch_task is not None:
            await self._dispatch_task
            self._dispatch_task = None
        await asyncio.get_running_loop().run_in_executor(
            None, self.scheduler.close
        )

    async def serve_unix(self, path: str | Path) -> asyncio.AbstractServer:
        await self.start()
        return await asyncio.start_unix_server(
            self.handle_connection, path=str(path), limit=MAX_FRAME_BYTES
        )

    async def serve_tcp(self, host: str, port: int) -> asyncio.AbstractServer:
        await self.start()
        return await asyncio.start_server(
            self.handle_connection, host=host, port=port, limit=MAX_FRAME_BYTES
        )

    def _persist_done(self, job: Job) -> None:
        """Durably mark a finished job without blocking the loop.

        The marker is a restart optimization (skips re-planning), never
        a correctness requirement — cell completions are already in the
        cache — so fire-and-forget is sound here.
        """
        if job.state == "done":
            asyncio.get_running_loop().run_in_executor(
                None, self.store.record_done, job.job_id
            )
        if self.draining and all(j.finished for j in self.jobs.values()):
            self.drained.set()

    # ------------------------------------------------------------------
    # Connection handling.
    # ------------------------------------------------------------------
    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one client: a loop of frames until EOF or a framing error.

        Per-frame failures (malformed JSON, unknown verb, rejected
        submit) answer with one structured error frame and keep the
        connection; an over-long line means line synchronization is
        lost, so the error frame is followed by a close.
        """
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._send(
                        writer,
                        error_frame(
                            E_FRAME_TOO_LARGE,
                            f"line exceeds {MAX_FRAME_BYTES} bytes; closing",
                        ),
                    )
                    break
                if not line:
                    break  # clean client EOF
                if not line.strip():
                    continue
                try:
                    frame = decode_frame(line)
                    reply = await self._dispatch(frame, writer)
                except ProtocolError as exc:
                    await self._send(writer, exc.to_frame())
                    if exc.code == E_FRAME_TOO_LARGE:
                        break
                    continue
                except (ConnectionError, asyncio.IncompleteReadError):
                    raise
                except Exception as exc:
                    # A handler bug must degrade to a structured error on
                    # this one connection, never a dead server.
                    await self._send(
                        writer,
                        error_frame(
                            E_INTERNAL, f"{type(exc).__name__}: {exc}"
                        ),
                    )
                    continue
                if reply is not None:
                    await self._send(writer, reply)
        except (ConnectionError, asyncio.IncompleteReadError):
            # Mid-stream disconnect: nothing to answer; accepted jobs
            # keep running and stay queryable.
            return
        except asyncio.CancelledError:
            # Server teardown cancels handlers parked in readline();
            # finishing normally here keeps the streams machinery from
            # logging the cancellation as a callback exception.
            return
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                return  # peer vanished while closing: already closed
            except asyncio.CancelledError:
                # Teardown can also land while the close is awaited; the
                # writer is already closed, so finish normally for the
                # same reason as above.
                return

    async def _send(self, writer: asyncio.StreamWriter, frame: dict) -> None:
        writer.write(encode_frame(frame))
        await writer.drain()

    # ------------------------------------------------------------------
    # Verb dispatch.
    # ------------------------------------------------------------------
    async def _dispatch(
        self, frame: dict, writer: asyncio.StreamWriter
    ) -> dict | None:
        verb = frame.get("verb")
        if not isinstance(verb, str) or verb not in VERBS:
            raise ProtocolError(
                E_UNKNOWN_VERB,
                f"unknown verb {verb!r} (know: {sorted(VERBS)})",
            )
        if verb == "ping":
            return ok_frame(pong=True, draining=self.draining)
        if verb == "submit":
            return await self._handle_submit(frame)
        if verb == "status":
            return self._handle_status(frame)
        if verb == "cancel":
            return self._handle_cancel(frame)
        if verb == "drain":
            return self._handle_drain()
        return await self._handle_watch(frame, writer)

    # -- submit ---------------------------------------------------------
    async def _handle_submit(self, frame: dict) -> dict:
        if self.draining:
            raise ProtocolError(
                E_DRAINING,
                "server is draining; no new jobs accepted",
                retry_after_s=max(
                    1.0, self.scheduler.eta_s(len(self.scheduler.inflight))
                ),
            )
        tenant = frame.get("tenant", "default")
        if not isinstance(tenant, str) or not tenant:
            raise ProtocolError(E_BAD_FRAME, "tenant must be a non-empty string")
        spec = GridSpec.from_dict(frame.get("grid"))
        job_id = job_id_for(tenant, spec, self.salt)
        existing = self.jobs.get(job_id)
        if existing is not None:
            return self._job_reply(existing, resubmitted=True)
        loop = asyncio.get_running_loop()
        planned = await loop.run_in_executor(
            None, partial(spec.plan, cache=self.cache)
        )
        resolved = await loop.run_in_executor(
            None, self.scheduler.resolve_planned, planned
        )
        # A concurrent identical submit may have landed during the
        # executor phases; content-addressed IDs make this idempotent.
        existing = self.jobs.get(job_id)
        if existing is not None:
            return self._job_reply(existing, resubmitted=True)
        job = Job(job_id=job_id, tenant=tenant, spec=spec, planned=planned)
        self.scheduler.attach(job, resolved)  # may raise admission-rejected
        self.jobs[job_id] = job
        await loop.run_in_executor(None, self.store.record_submitted, job)
        return self._job_reply(job)

    def _job_reply(self, job: Job, **extra) -> dict:
        reply = ok_frame(
            **job.snapshot(
                queue_position=self.scheduler.queue_position(job),
                eta_s=self.scheduler.eta_s(job.total - job.done),
            ),
            **extra,
        )
        if job.finished:
            reply["rows"] = job.ordered_rows()
            reply["errors"] = job.ordered_errors()
        return reply

    # -- status ---------------------------------------------------------
    def _job_for(self, frame: dict) -> Job:
        job_id = frame.get("job")
        job = self.jobs.get(job_id) if isinstance(job_id, str) else None
        if job is None:
            raise ProtocolError(E_UNKNOWN_JOB, f"no such job: {job_id!r}")
        return job

    def _handle_status(self, frame: dict) -> dict:
        if frame.get("job") is not None:
            return self._job_reply(self._job_for(frame))
        return ok_frame(
            draining=self.draining,
            workers=self.scheduler.workers,
            jobs={
                job_id: job.snapshot(
                    queue_position=self.scheduler.queue_position(job),
                    eta_s=self.scheduler.eta_s(job.total - job.done),
                )
                for job_id, job in self.jobs.items()
            },
            tenants={
                name: len(ts.queue)
                for name, ts in self.scheduler.tenants.items()
            },
            counters=self.scheduler.counter_values(),
        )

    # -- cancel ---------------------------------------------------------
    def _handle_cancel(self, frame: dict) -> dict:
        job = self._job_for(frame)
        if job.finished:
            return self._job_reply(job)
        removed = self.scheduler.cancel_job(job)
        job.state = "cancelled"
        self.scheduler.finish_job(job)
        asyncio.get_running_loop().run_in_executor(
            None, self.store.record_cancelled, job.job_id
        )
        return self._job_reply(job, cancelled_cells=removed)

    # -- drain ----------------------------------------------------------
    def _handle_drain(self) -> dict:
        self.draining = True
        pending = [j for j in self.jobs.values() if not j.finished]
        if not pending:
            self.drained.set()
        return ok_frame(
            draining=True,
            jobs_pending=len(pending),
            cells_pending=len(self.scheduler.inflight),
        )

    # -- watch ----------------------------------------------------------
    async def _handle_watch(
        self, frame: dict, writer: asyncio.StreamWriter
    ) -> None:
        """Stream progress events for one job until it finishes."""
        job = self._job_for(frame)
        await self._send(
            writer,
            self._job_reply(job, event="snapshot"),
        )
        if job.finished:
            return None
        queue: asyncio.Queue = asyncio.Queue(maxsize=1024)
        job.subscribers.append(queue)
        try:
            while True:
                event = await queue.get()
                await self._send(writer, ok_frame(**event))
                if event.get("state") in ("done", "cancelled"):
                    return None
        finally:
            if queue in job.subscribers:
                job.subscribers.remove(queue)
