"""Supervised worker pool: deadlines, retries, and graceful degradation.

``SweepEngine`` used to fan cells over a bare ``multiprocessing.Pool``
with ``imap_unordered`` — fine until a worker hangs (the grid stalls
forever), is SIGKILLed (its cells are silently lost), or the pool breaks
(the whole sweep aborts).  :class:`WorkerSupervisor` replaces that with
the same retry/timeout/degradation discipline the device layer applies
to PCM writes (``docs/FAULTS.md``), lifted to the execution layer
(``docs/RESILIENCE.md``):

* **Per-task deadlines** — every dispatched task carries a wall-clock
  deadline (the engine scales it by trace size); a task that blows its
  deadline has its worker killed and is retried elsewhere.
* **Worker-death detection** — each worker owns a private ``Pipe``; a
  killed worker surfaces as EOF on its connection within one poll
  interval (no shared queue a dying worker can corrupt), and its task is
  retried with the worker's exit code recorded as ``last_signal``.
* **Bounded retry with deterministic backoff** — a failed attempt is
  requeued after an exponential backoff whose jitter derives from
  ``sha256(seed, task, attempt)``, so retry schedules are reproducible
  in tests and across runs.
* **Quarantine** — a task that fails ``max_retries + 1`` attempts stops
  retrying and is reported as a structured failure carrying
  ``attempts``/``last_signal``; the rest of the grid completes.
* **Graceful degradation** — dead or hung workers are replaced up to
  ``max_replacements`` times; past that the supervisor stops trusting
  process isolation and drains the remaining tasks serially in-process
  rather than aborting.

Every retry, timeout, death, and degradation emits a
:meth:`~repro.obs.Tracer.instant` on the active tracer (when one is
installed) and bumps a counter in :attr:`WorkerSupervisor.metrics`, so a
chaotic sweep leaves a timeline.  With zero faults the supervisor is a
plain work-stealing pool: tasks run exactly once, in dispatch order per
worker, and results are byte-identical to the unsupervised pool it
replaced.  ``benchmarks/bench_sweep_scaling.py`` asserts identical rows
and zero retries/timeouts/deaths/serial fallbacks on a clean sweep (no
overhead bound); the supervisor's cost shows in the benchmark's
``des_grid`` workload, which runs with ``workers=2``.
"""

from __future__ import annotations

import hashlib
import math
import time
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing import get_context
from multiprocessing.connection import wait as _wait_ready
from typing import Callable, Iterator

from repro.obs.metrics import MetricRegistry
from repro.obs.runtime import active_tracer

__all__ = [
    "RetryPolicy",
    "TaskFailure",
    "TaskReport",
    "WorkerSupervisor",
    "WorkerTaskError",
    "retry_jitter",
]


def retry_jitter(seed: int, task_id: int, attempt: int) -> float:
    """Deterministic jitter in ``[0, 1)`` for one (task, attempt) pair.

    Derived from a SHA-256 digest rather than a shared RNG so the value
    is a pure function of its arguments: independent of retry ordering,
    worker identity, and ``PYTHONHASHSEED``.
    """
    digest = hashlib.sha256(f"{seed}:{task_id}:{attempt}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class RetryPolicy:
    """Knobs for the supervision state machine (docs/RESILIENCE.md).

    ``deadline_base_s``/``deadline_per_request_s`` are the default
    deadline scaling the engine applies per cell (a cell pricing more
    requests gets more wall clock before it is declared hung).
    """

    max_retries: int = 2            # attempts beyond the first
    backoff_base_s: float = 0.05    # first retry delay
    backoff_cap_s: float = 2.0      # exponential growth ceiling
    jitter: float = 0.5             # +[0, jitter) fraction on top
    max_replacements: int = 3       # worker rebuilds before serial fallback
    poll_interval_s: float = 0.05   # supervisor wakeup granularity
    deadline_base_s: float = 30.0
    deadline_per_request_s: float = 0.02
    seed: int = 0                   # jitter derivation root

    def backoff_s(self, task_id: int, attempt: int) -> float:
        """Delay before attempt ``attempt + 1`` of ``task_id``."""
        base = min(
            self.backoff_cap_s, self.backoff_base_s * (2 ** max(0, attempt - 1))
        )
        return base * (1.0 + self.jitter * retry_jitter(self.seed, task_id, attempt))

    def deadline_s(self, requests_per_core: int) -> float:
        """Default per-cell deadline scaled by trace size."""
        return self.deadline_base_s + self.deadline_per_request_s * requests_per_core


@dataclass(frozen=True)
class TaskFailure:
    """Structured terminal failure of one task (strings only: picklable)."""

    error_type: str
    message: str
    traceback_text: str = ""


@dataclass
class TaskReport:
    """One task's terminal outcome as the supervisor saw it."""

    task_id: int
    value: object = None                 # task_fn return value on success
    failure: TaskFailure | None = None   # set when no value was produced
    attempts: int = 1
    last_signal: str = ""                # "", "timeout", "exit:-9", "exception"
    serial: bool = False                 # ran via the serial fallback


class WorkerTaskError(RuntimeError):
    """Raised by fail-fast callers for a task that died without a value."""

    def __init__(self, failure: TaskFailure) -> None:
        self.failure = failure
        super().__init__(
            f"{failure.error_type}: {failure.message}\n{failure.traceback_text}"
        )


# ----------------------------------------------------------------------
# Worker process side.  Must stay top-level and import-light: workers
# are forked (or spawned) with this module importable.
# ----------------------------------------------------------------------
def _worker_main(conn, task_fn) -> None:
    """Worker loop: receive a payload, run ``task_fn``, send the result.

    A raising task is shipped back as a structured failure (plus the
    exception object itself when picklable, so fail-fast callers can
    re-raise the original).  ``None`` is the shutdown sentinel.
    """
    while True:
        try:
            payload = conn.recv()
        except (EOFError, OSError):
            return
        if payload is None:
            return
        try:
            value = task_fn(payload)
        except BaseException as exc:
            failure = TaskFailure(
                error_type=type(exc).__name__,
                message=str(exc),
                traceback_text=traceback.format_exc(),
            )
            try:
                conn.send(("err", failure, exc))
            except Exception:
                conn.send(("err", failure, None))
            continue
        try:
            conn.send(("ok", value))
        except Exception as exc:
            conn.send(
                (
                    "err",
                    TaskFailure(
                        error_type=type(exc).__name__,
                        message=f"task result not picklable: {exc}",
                    ),
                    None,
                )
            )


@dataclass
class _Attempt:
    """Supervisor-side bookkeeping for one task across its attempts."""

    task_id: int
    payload: object
    deadline_s: float | None
    attempts: int = 0
    last_signal: str = ""
    not_before: float = 0.0      # monotonic instant the next attempt may start


class _Worker:
    """One supervised worker process with a private duplex pipe."""

    def __init__(self, ctx, task_fn) -> None:
        self.conn, child = ctx.Pipe()
        self.process = ctx.Process(
            target=_worker_main, args=(child, task_fn), daemon=True
        )
        self.process.start()
        child.close()
        self.task: _Attempt | None = None
        self.deadline_at: float = math.inf
        self.dead = False

    def dispatch(self, attempt: _Attempt, now: float) -> bool:
        """Send one attempt; False (and ``dead``) if the pipe is broken."""
        try:
            self.conn.send(attempt.payload)
        except (OSError, ValueError):
            self.dead = True
            return False
        self.task = attempt
        self.deadline_at = (
            now + attempt.deadline_s if attempt.deadline_s else math.inf
        )
        return True

    def exit_signal(self) -> str:
        code = self.process.exitcode
        return f"exit:{code}" if code is not None else "exit:?"

    def destroy(self, *, graceful: bool) -> None:
        """Tear the worker down; ``graceful`` sends the stop sentinel first."""
        try:
            if graceful and self.process.is_alive():
                self.conn.send(None)
                self.process.join(timeout=0.5)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(timeout=1.0)
        except (OSError, ValueError):
            pass  # already gone / pipe closed: nothing left to tear down
        finally:
            self.conn.close()


# ----------------------------------------------------------------------
# The supervisor.
# ----------------------------------------------------------------------
class WorkerSupervisor:
    """Run picklable tasks over supervised worker processes.

    Parameters
    ----------
    task_fn:
        Top-level picklable callable executed as ``task_fn(payload)``
        inside a worker.
    workers:
        Worker process count (>= 1).  The supervisor still runs its
        state machine at ``workers=1``; callers wanting a zero-machinery
        inline loop should branch before constructing one.
    policy:
        The :class:`RetryPolicy` governing backoff, retry and
        degradation bounds.
    deadline_for:
        Optional ``payload -> seconds | None`` giving each task its
        wall-clock deadline; ``None`` (default) disables deadlines.
    retry_value_signal:
        Optional ``value -> str | None`` classifying a *returned* value
        as a retryable failure (the engine maps ``CellError`` rows to
        ``"exception"``); ``None`` treats every returned value as final.
    name:
        Label used for tracer events (``<name>.retry`` instants etc.).
    """

    def __init__(
        self,
        task_fn: Callable,
        *,
        workers: int,
        policy: RetryPolicy | None = None,
        deadline_for: Callable[[object], float | None] | None = None,
        retry_value_signal: Callable[[object], str | None] | None = None,
        name: str = "sweep",
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.task_fn = task_fn
        self.workers = int(workers)
        self.policy = policy if policy is not None else RetryPolicy()
        self.deadline_for = deadline_for
        self.retry_value_signal = retry_value_signal
        self.name = name
        self.metrics = MetricRegistry()
        self._c = {
            key: self.metrics.counter(f"supervisor.{key}")
            for key in (
                "dispatched", "retries", "timeouts", "worker_deaths",
                "replacements", "quarantined", "serial_tasks",
            )
        }
        self.degraded = False

    # -- observability -------------------------------------------------
    def counts(self) -> dict[str, int]:
        """Current supervisor counters as plain ints."""
        return {key: int(c.value) for key, c in self._c.items()}

    def _event(self, kind: str, **args) -> None:
        self._c[
            {
                "retry": "retries",
                "timeout": "timeouts",
                "worker-death": "worker_deaths",
                "replace": "replacements",
                "quarantine": "quarantined",
                "serial": "serial_tasks",
                "dispatch": "dispatched",
            }[kind]
        ].inc()
        tracer = active_tracer()
        if tracer is not None and kind != "dispatch":
            tracer.instant(
                f"{self.name}.{kind}",
                pid=f"{self.name}.supervisor",
                tid="supervisor",
                cat="supervisor",
                args=args,
            )

    # -- scheduling helpers --------------------------------------------
    def _schedule_retry(
        self, attempt: _Attempt, signal: str, ready: deque, delayed: list,
        now: float,
    ) -> bool:
        """Requeue ``attempt`` if budget remains; True when requeued."""
        attempt.last_signal = signal
        if attempt.attempts > self.policy.max_retries:
            self._event(
                "quarantine", task=attempt.task_id,
                attempts=attempt.attempts, signal=signal,
            )
            return False
        attempt.not_before = now + self.policy.backoff_s(
            attempt.task_id, attempt.attempts
        )
        delayed.append(attempt)
        self._event(
            "retry", task=attempt.task_id, attempts=attempt.attempts,
            signal=signal,
        )
        return True

    def _finish_value(
        self, attempt: _Attempt, value, ready: deque, delayed: list,
        now: float, *, serial: bool,
    ) -> TaskReport | None:
        """Terminal-or-retry decision for a task that returned a value."""
        signal = (
            self.retry_value_signal(value)
            if self.retry_value_signal is not None
            else None
        )
        if signal and self._schedule_retry(attempt, signal, ready, delayed, now):
            return None
        return TaskReport(
            task_id=attempt.task_id,
            value=value,
            attempts=attempt.attempts,
            last_signal=signal or attempt.last_signal,
            serial=serial,
        )

    @staticmethod
    def _promote_ready(ready: deque, delayed: list, now: float) -> None:
        still_waiting = [a for a in delayed if a.not_before > now]
        for a in delayed:
            if a.not_before <= now:
                ready.append(a)
        delayed[:] = still_waiting

    def _next_wakeup_s(self, delayed: list, busy: list, now: float) -> float:
        horizon = self.policy.poll_interval_s
        for a in delayed:
            horizon = min(horizon, max(0.0, a.not_before - now))
        for w in busy:
            horizon = min(horizon, max(0.0, w.deadline_at - now))
        return max(horizon, 0.001)

    # -- the run loop ---------------------------------------------------
    def run(self, payloads) -> Iterator[TaskReport]:
        """Yield a :class:`TaskReport` per ``(task_id, payload)`` pair.

        Reports are yielded in completion order; callers reassemble by
        ``task_id``.  The generator owns the worker processes: exhausting
        or closing it tears them down.
        """
        ready: deque[_Attempt] = deque(
            _Attempt(
                task_id=task_id,
                payload=payload,
                deadline_s=(
                    self.deadline_for(payload)
                    if self.deadline_for is not None
                    else None
                ),
            )
            for task_id, payload in payloads
        )
        delayed: list[_Attempt] = []
        if not ready:
            return
        ctx = get_context()
        pool: list[_Worker] = [
            _Worker(ctx, self.task_fn)
            for _ in range(min(self.workers, len(ready)))
        ]
        replacements = 0
        try:
            while ready or delayed or any(w.task is not None for w in pool):
                now = time.monotonic()
                self._promote_ready(ready, delayed, now)

                if self.degraded:
                    yield from self._drain_serial(ready, delayed)
                    return

                # Dispatch to idle workers.  A worker found dead at
                # dispatch time (killed while idle) is replaced and the
                # attempt is requeued uncharged.
                for w in list(pool):
                    if w.task is None and not w.dead and ready:
                        attempt = ready.popleft()
                        attempt.attempts += 1
                        if w.dispatch(attempt, now):
                            self._event("dispatch")
                        else:
                            attempt.attempts -= 1
                            ready.appendleft(attempt)
                    if w.dead:
                        replacements += self._replace(w, pool, ctx)

                busy = [w for w in pool if w.task is not None]
                if not busy:
                    # Everything outstanding is backing off.
                    time.sleep(self._next_wakeup_s(delayed, busy, now))
                    continue

                for conn in _wait_ready(
                    [w.conn for w in busy],
                    timeout=self._next_wakeup_s(delayed, busy, now),
                ):
                    w = next(w for w in busy if w.conn is conn)
                    report = self._collect(w, ready, delayed)
                    if report is not None:
                        yield report
                    if w.dead:
                        replacements += self._replace(w, pool, ctx)

                now = time.monotonic()
                for w in busy:
                    if w.task is not None and now >= w.deadline_at:
                        report = self._reap_hung(w, ready, delayed, now)
                        if report is not None:
                            yield report
                        replacements += self._replace(w, pool, ctx)

                if replacements > self.policy.max_replacements:
                    self._degrade(pool, ready, delayed)
        finally:
            for w in pool:
                w.destroy(graceful=True)

    # -- event handlers --------------------------------------------------
    def _collect(self, w: _Worker, ready, delayed) -> TaskReport | None:
        """Handle one readable worker connection (result or death)."""
        attempt = w.task
        now = time.monotonic()
        try:
            msg = w.conn.recv()
        except (EOFError, OSError):
            # The worker died mid-task: retry its attempt elsewhere.
            w.task = None
            w.dead = True
            if attempt is None:
                return None
            signal = w.exit_signal()
            self._event(
                "worker-death", task=attempt.task_id, signal=signal,
                attempts=attempt.attempts,
            )
            if self._schedule_retry(attempt, signal, ready, delayed, now):
                return None
            return TaskReport(
                task_id=attempt.task_id,
                failure=TaskFailure(
                    error_type="WorkerCrash",
                    message=(
                        f"worker died ({signal}) on every attempt; "
                        f"task quarantined after {attempt.attempts} attempts"
                    ),
                ),
                attempts=attempt.attempts,
                last_signal=attempt.last_signal,
            )
        w.task = None
        w.deadline_at = math.inf
        if attempt is None:  # late message from an already-reaped task
            return None
        if msg[0] == "ok":
            return self._finish_value(
                attempt, msg[1], ready, delayed, now, serial=False
            )
        _, failure, exc = msg
        if self._schedule_retry(attempt, "exception", ready, delayed, now):
            return None
        return TaskReport(
            task_id=attempt.task_id,
            failure=failure,
            value=exc,
            attempts=attempt.attempts,
            last_signal="exception",
        )

    def _reap_hung(self, w: _Worker, ready, delayed, now) -> TaskReport | None:
        """Kill a worker whose task blew its deadline; retry the task."""
        attempt = w.task
        w.task = None
        self._event(
            "timeout", task=attempt.task_id, deadline_s=attempt.deadline_s,
            attempts=attempt.attempts,
        )
        w.destroy(graceful=False)
        if self._schedule_retry(attempt, "timeout", ready, delayed, now):
            return None
        return TaskReport(
            task_id=attempt.task_id,
            failure=TaskFailure(
                error_type="CellTimeout",
                message=(
                    f"task exceeded its {attempt.deadline_s:g}s deadline on "
                    f"all {attempt.attempts} attempts"
                ),
            ),
            attempts=attempt.attempts,
            last_signal="timeout",
        )

    def _replace(self, dead: _Worker, pool: list, ctx) -> int:
        """Swap a dead/killed worker for a fresh one; returns 1."""
        dead.destroy(graceful=False)
        idx = pool.index(dead)
        pool[idx] = _Worker(ctx, self.task_fn)
        self._event("replace")
        return 1

    def _degrade(self, pool: list, ready, delayed) -> None:
        """Stop trusting process isolation: drop to serial execution."""
        self.degraded = True
        tracer = active_tracer()
        if tracer is not None:
            tracer.instant(
                f"{self.name}.degrade-serial",
                pid=f"{self.name}.supervisor",
                tid="supervisor",
                cat="supervisor",
                args={"remaining": len(ready) + len(delayed)},
            )
        for w in pool:
            attempt = w.task
            w.task = None
            if attempt is not None:
                # The in-flight attempt never completed through no fault
                # of the task; don't charge it against the retry budget.
                attempt.attempts -= 1
                ready.append(attempt)
            w.destroy(graceful=False)
        pool.clear()

    def _drain_serial(self, ready, delayed) -> Iterator[TaskReport]:
        """In-process execution of everything left (no deadlines)."""
        while ready or delayed:
            now = time.monotonic()
            self._promote_ready(ready, delayed, now)
            if not ready:
                time.sleep(self._next_wakeup_s(delayed, [], now))
                continue
            attempt = ready.popleft()
            attempt.attempts += 1
            self._event("serial", task=attempt.task_id)
            try:
                value = self.task_fn(attempt.payload)
            except Exception as exc:
                if self._schedule_retry(
                    attempt, "exception", ready, delayed, time.monotonic()
                ):
                    continue
                yield TaskReport(
                    task_id=attempt.task_id,
                    failure=TaskFailure(
                        error_type=type(exc).__name__,
                        message=str(exc),
                        traceback_text=traceback.format_exc(),
                    ),
                    value=exc,
                    attempts=attempt.attempts,
                    last_signal="exception",
                    serial=True,
                )
                continue
            report = self._finish_value(
                attempt, value, ready, delayed, time.monotonic(), serial=True
            )
            if report is not None:
                yield report
