"""Parallel experiment engine: fan the evaluation grid over processes.

The paper's evaluation (Figs 11-14, Table III) is a grid of independent
full-system DES runs — a (scheme x workload x seed) product under one
configuration, where no cell reads another cell's output.  That shape is
embarrassingly parallel, and :class:`SweepEngine` exploits it:

* **Supervised multiprocess fan-out** — cells are distributed over the
  :class:`~repro.parallel.supervisor.WorkerSupervisor`'s worker pool
  (idle workers steal the next cell), which adds per-cell deadlines,
  worker-death detection, bounded retry with deterministic backoff, and
  serial fallback when process isolation keeps failing
  (``docs/RESILIENCE.md``) on top of plain parallelism.
* **Determinism** — each cell's seed is a pure function of the grid
  coordinates (``SeedSequence``-derived for replicated-seed studies),
  never of worker identity or completion order, and rows are reassembled
  in grid order; a ``workers=N`` sweep is bit-identical to ``workers=1``,
  and a zero-fault supervised run is bit-identical to an unsupervised
  one.
* **Per-worker trace reuse** — a worker generates each workload's trace
  once (bounded ``lru_cache``) and reuses it for every scheme cell it
  services, instead of regenerating per cell.
* **Result caching** — cells are addressed by their coordinates and the
  config in the on-disk :class:`~repro.parallel.resultcache.ResultCache`;
  hits skip trace generation and the DES entirely.
* **Resume** — every finished cell is an atomic, digest-checked cache
  entry, so re-running a crashed sweep on the same cache re-executes
  only the cells that had not finished.  An attached
  :class:`~repro.parallel.journal.SweepJournal` is a checkpoint that
  works without the cache: ``run(resume=True)`` replays journaled cells
  without re-executing them.
* **Structured failure capture** — a crashed cell becomes a
  :class:`CellError` row carrying the traceback plus its ``attempts``
  and ``last_signal``; the rest of the grid completes.  Legacy callers
  that want fail-fast semantics use :meth:`SweepResult.raise_errors`.

:func:`run_cells` (supervised execution, deadlines, failure capture)
and :func:`cell_meta` (the provenance stamped on every stored row) are
the one implementation of running and storing cells; the sweep service
(``repro.service``) executes its batches through them too, and so does
the fastpath's differential recheck, on the sweep's own worker pool.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import os
import signal as _signal
import threading
import time
import traceback
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from repro.config import SystemConfig, default_config
from repro.fastpath import (
    FastpathEnvelopeError,
    build_certificate,
    classify,
    recheck_rows,
    select_recheck_indices,
    write_certificate,
)
from repro.fastpath.recheck import DEFAULT_RECHECK_FRACTION
from repro.parallel.journal import (
    StaleJournalError,
    SweepJournal,
    journal_cell_key,
)
from repro.parallel.resultcache import (
    ResultCache,
    cache_disabled_by_env,
    code_salt,
    default_cache_dir,
)
from repro.parallel.supervisor import RetryPolicy, WorkerSupervisor
from repro.schemes import SCHEME_REGISTRY
from repro.trace.record import Trace
from repro.trace.workloads import WORKLOAD_NAMES
from repro.verify import InvariantViolation, runtime_verification_enabled

__all__ = [
    "CellError",
    "CellOutcome",
    "PlannedCell",
    "SweepCell",
    "SweepCellError",
    "SweepEngine",
    "SweepResult",
    "SweepStats",
    "FASTPATH_MODES",
    "cell_meta",
    "cell_supervisor",
    "close_cell_pool",
    "default_workers",
    "derive_cell_seeds",
    "execute_cell_payload",
    "run_cells",
]


#: Fastpath lane policies: ``off`` (DES everywhere, the byte-compatible
#: default), ``auto`` (analytic lane inside the envelope, DES outside),
#: ``force`` (analytic lane or :class:`FastpathEnvelopeError`).
FASTPATH_MODES = ("off", "auto", "force")


def default_workers() -> int:
    """Sensible worker count: the machine's cores, capped at 8."""
    return max(1, min(8, os.cpu_count() or 1))


def derive_cell_seeds(root_seed: int, n: int) -> tuple[int, ...]:
    """Derive ``n`` independent per-replica seeds from one root seed.

    ``SeedSequence.spawn`` guarantees the children are statistically
    independent and — crucially for parallel determinism — each child is
    a pure function of ``(root_seed, index)``: the derivation never
    observes worker identity, scheduling order, or wall clock, so a
    parallel sweep prices replica *i* identically to a serial one.
    """
    if n < 1:
        raise ValueError("need at least one seed")
    children = np.random.SeedSequence(root_seed).spawn(n)
    return tuple(int(child.generate_state(1)[0]) for child in children)


# ----------------------------------------------------------------------
# Grid cells and outcomes.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepCell:
    """Coordinates of one grid cell."""

    workload: str
    scheme: str
    seed: int
    variant: str = "default"   # always "default"; kept for stored rows


@dataclass(frozen=True)
class CellError:
    """Structured capture of one failed cell (the sweep survives).

    ``attempts`` counts every execution the supervisor charged to the
    cell (1 for an unsupervised / serial failure); ``last_signal`` names
    the final failure mode — ``"exception"``, ``"timeout"``, or the
    worker's ``"exit:<code>"``.
    """

    workload: str
    scheme: str
    seed: int
    variant: str
    error_type: str
    message: str
    traceback_text: str
    attempts: int = 1
    last_signal: str = ""

    def format(self) -> str:
        suffix = ""
        if self.attempts > 1 or self.last_signal:
            suffix = (
                f" [attempts={self.attempts}"
                + (f", {self.last_signal}" if self.last_signal else "")
                + "]"
            )
        return (
            f"[{self.variant}] {self.workload} x {self.scheme} "
            f"(seed {self.seed}): {self.error_type}: {self.message}{suffix}"
        )


@dataclass(frozen=True)
class CellOutcome:
    """One cell's terminal state: a result row or an error, maybe replayed."""

    cell: SweepCell
    row: object | None = None          # ExperimentResult on success
    error: CellError | None = None
    cached: bool = False
    resumed: bool = False              # replayed from the sweep journal


@dataclass(frozen=True)
class PlannedCell:
    """One grid cell fully resolved for execution or content addressing.

    Produced by :meth:`SweepEngine.plan`; the ``payload`` is exactly
    what :func:`execute_cell_payload` (and the worker pool) consumes,
    and the keys are the same content addresses :meth:`SweepEngine.run`
    uses — so an external scheduler (``repro.service``) that plans via
    the engine dedups and caches identically to a serial run.
    """

    index: int
    cell: SweepCell
    payload: tuple
    cache_key: str | None      # None when the engine has no cache
    journal_key: str           # code-salted journal content address
    lane: str = "des"          # "des" | "fastpath" (payload's last element)
    lane_reasons: tuple[str, ...] = ()   # why a cell stayed on the DES lane


class SweepCellError(RuntimeError):
    """Raised by :meth:`SweepResult.raise_errors` for fail-fast callers.

    The exception message is a one-line-per-cell summary (attempt counts
    included); the full tracebacks stay available on :attr:`errors` /
    :attr:`tracebacks` instead of flooding the terminal N times over.
    """

    def __init__(self, errors: list[CellError]) -> None:
        self.errors = errors
        lines = "\n".join(f"  {e.format()}" for e in errors)
        super().__init__(
            f"{len(errors)} sweep cell(s) failed:\n{lines}\n"
            "(full tracebacks on the exception's .tracebacks attribute)"
        )

    @property
    def tracebacks(self) -> list[str]:
        """Full per-cell tracebacks, in :attr:`errors` order."""
        return [e.traceback_text for e in self.errors]


@dataclass
class SweepStats:
    """Execution accounting for one :meth:`SweepEngine.run`."""

    cells: int = 0
    executed: int = 0       # cells that actually ran (not cache/journal)
    queueing_reused: int = 0  # executed cells that reused a twin's queueing
    cache_hits: int = 0
    cache_stores: int = 0
    resumed: int = 0        # cells replayed from the sweep journal
    errors: int = 0
    workers: int = 1
    wall_s: float = 0.0
    # Supervisor accounting (all zero on a fault-free run).
    retries: int = 0
    timeouts: int = 0
    worker_deaths: int = 0
    replacements: int = 0
    serial_cells: int = 0   # cells drained by the serial fallback
    # Lane accounting (see docs/PERFORMANCE.md).
    fastpath_cells: int = 0
    des_cells: int = 0
    recheck_samples: int = 0
    recheck_divergences: int = 0

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class SweepResult:
    """Grid outcomes in deterministic grid order, plus run statistics.

    ``certificate`` is the per-run lane audit document
    (:mod:`repro.fastpath.certificate`): which lane produced each row,
    and the sampled differential recheck's evidence.
    """

    outcomes: list[CellOutcome]
    stats: SweepStats
    certificate: dict | None = None

    @property
    def rows(self) -> list:
        """Successful :class:`ExperimentResult` rows, in grid order."""
        return [o.row for o in self.outcomes if o.row is not None]

    @property
    def errors(self) -> list[CellError]:
        return [o.error for o in self.outcomes if o.error is not None]

    def raise_errors(self) -> None:
        """Propagate cell failures the way a serial loop would have."""
        errors = self.errors
        if errors:
            raise SweepCellError(errors)


# ----------------------------------------------------------------------
# The per-cell unit of work.  Everything below must stay top-level and
# picklable: pool workers import this module and receive plain tuples.
# ----------------------------------------------------------------------
@lru_cache(maxsize=4)
def _config_from_json(config_json: str) -> SystemConfig:
    return SystemConfig.from_json(config_json)


@lru_cache(maxsize=16)
def _trace_for(
    workload: str, requests_per_core: int, num_cores: int, seed: int
) -> Trace:
    """Per-process trace cache: one generation per (workload, seed) per
    worker, shared by every scheme cell the worker services."""
    from repro.trace.synthetic import generate_trace

    return generate_trace(
        workload, requests_per_core, num_cores=num_cores, seed=seed
    )


def _queue_once(service_ns: np.ndarray, carried: dict | None,
                config: SystemConfig, queue):
    """A cell's queueing result: ``queue()``, or its twin's -> ``(result, landed)``.

    Queueing (the DES run or the analytic model) sees a scheme only
    through its per-write service vector, so within one run, where the
    config is fixed, two cells of one trace with equal vectors queue
    alike.  ``carried`` maps the SHA-256 of every vector the run has
    already queued on this cell's trace to its result; ``None`` (a plain
    payload) always queues.  ``landed`` is ``None`` for a plain payload,
    else ``(digest, result)`` after queueing or ``(digest, None)`` after
    a reuse.  Under runtime verification a reuse queues anyway and
    raises :class:`InvariantViolation` if any output differs.
    """
    if carried is None:
        return queue(), None
    digest = hashlib.sha256(service_ns.tobytes()).hexdigest()
    result = carried.get(digest)
    if result is None:
        result = queue()
        return result, (digest, result)
    if runtime_verification_enabled(config):
        fresh = queue()
        if fresh != result:
            raise InvariantViolation(
                "queueing_reuse",
                "a twin's queueing result differs from this cell's own",
                digest=digest, reused=result, fresh=fresh,
            )
    return result, (digest, None)


def _execute_cell(trace: Trace, workload: str, scheme: str,
                  config: SystemConfig, carried: dict | None = None):
    """Price + simulate one (trace, scheme) cell -> ``(row, landed)``.

    The DES run is skipped when ``carried`` holds a twin's result (see
    :func:`_queue_once`).  Fields are coerced to builtin ``float``/``int``
    so a freshly computed row is byte-identical to the same row after a
    JSON cache round-trip.
    """
    from repro.experiments.fullsystem import (
        precompute_write_service,
        run_fullsystem,
    )
    from repro.experiments.runner import ExperimentResult

    table = precompute_write_service(trace, scheme, config)

    def simulate() -> tuple:
        res = run_fullsystem(trace, scheme, config, table=table)
        return (
            float(res.mean_read_latency_ns),
            float(res.mean_write_latency_ns),
            float(res.ipc),
            float(res.runtime_ns),
            int(res.controller.forwarded_reads),
            int(res.events),
        )

    (read_lat, w_lat, ipc, runtime, n_fwd, events), landed = _queue_once(
        table.service_ns, carried, config, simulate
    )
    row = ExperimentResult(
        workload=workload,
        scheme=scheme,
        read_latency_ns=read_lat,
        write_latency_ns=w_lat,
        ipc=ipc,
        runtime_ns=runtime,
        mean_write_units=float(table.mean_units()),
        mean_write_energy=float(table.energy.mean()) if table.energy.size else 0.0,
        forwarded_reads=n_fwd,
        events=events,
    )
    return row, landed


def _execute_cell_fastpath(
    trace: Trace, workload: str, scheme: str, config: SystemConfig,
    carried: dict | None = None,
):
    """Price one cell analytically -> ``(row, landed)`` (no DES).

    Same field coercion and ``carried`` contract as :func:`_execute_cell`;
    ``events == 0`` marks the analytic lane in every artifact.
    """
    from repro.experiments.runner import ExperimentResult
    from repro.fastpath.pricer import model_cell, price_cell

    landed = None

    def model(service_ns) -> tuple:
        nonlocal landed
        result, landed = _queue_once(
            service_ns, carried, config,
            lambda: model_cell(trace, service_ns, config),
        )
        return result

    row = ExperimentResult(
        **price_cell(trace, workload, scheme, config, model=model)
    )
    return row, landed


def _chaos_inject(workload: str, scheme: str) -> None:
    """Deterministic fault injection for the chaos suite (off by default).

    ``REPRO_CHAOS_KILL_ONCE=<flag-file>:<workload>:<scheme>`` SIGKILLs
    the process servicing that cell — once: the flag file is consumed
    *before* the kill, so the supervisor's retry runs clean.
    ``REPRO_CHAOS_HANG=<workload>:<scheme>:<seconds>`` sleeps the cell
    on every attempt, tripping the supervisor deadline.  Both gates are
    unset in production; the cost of the check is two env lookups.
    """
    spec = os.environ.get("REPRO_CHAOS_KILL_ONCE", "")
    if spec:
        flag, w, s = spec.rsplit(":", 2)
        if w == workload and s == scheme:
            try:
                os.unlink(flag)
            except OSError:
                return  # flag already consumed: this attempt runs clean
            os.kill(os.getpid(), _signal.SIGKILL)
    spec = os.environ.get("REPRO_CHAOS_HANG", "")
    if spec:
        w, s, seconds = spec.rsplit(":", 2)
        if w == workload and s == scheme:
            time.sleep(float(seconds))


def execute_cell_payload(payload: tuple):
    """Execute one cell payload -> ``(idx, row | CellError)``.

    The picklable unit of work every executor runs (the serial loop and
    the supervised workers of :func:`run_cells`), so a payload yields
    the same row wherever it executes.  A :class:`PlannedCell` payload
    has eight fields.  :meth:`SweepEngine.run` appends a ninth, the
    queueing results its run has landed on the cell's trace (see
    :func:`_queue_once`); such a payload returns ``(idx, row | CellError,
    landed)``, and :func:`run_cells` folds ``landed`` back into them.

    The broad except is the structured-failure boundary: the exception is
    converted into a :class:`CellError` row (type, message, traceback)
    and returned to the parent, so one poisoned cell cannot kill the
    whole grid.
    """
    (
        idx,
        workload,
        scheme,
        seed,
        variant,
        requests_per_core,
        config_json,
        lane,
    ) = payload[:8]
    carried = payload[8] if len(payload) > 8 else None
    try:
        _chaos_inject(workload, scheme)
        config = _config_from_json(config_json)
        trace = _trace_for(workload, requests_per_core, config.cpu.num_cores, seed)
        execute = _execute_cell_fastpath if lane == "fastpath" else _execute_cell
        row, landed = execute(trace, workload, scheme, config, carried)
    except Exception as exc:
        row, landed = CellError(
            workload=workload,
            scheme=scheme,
            seed=seed,
            variant=variant,
            error_type=type(exc).__name__,
            message=str(exc),
            traceback_text=traceback.format_exc(),
        ), None
    return (idx, row) if carried is None else (idx, row, landed)


def _fold_landed(payload: tuple, value: tuple) -> bool:
    """Add a carried cell's fresh queueing result to its group's results.

    Returns True when the cell reused a twin's result instead.
    """
    landed = value[2] if len(value) > 2 else None
    if landed is None:
        return False
    digest, result = landed
    if result is None:
        return True
    payload[8].setdefault(digest, result)
    return False


def _cell_retry_signal(value) -> str | None:
    """Supervisor value classifier: CellError rows are retryable failures."""
    return "exception" if isinstance(value[1], CellError) else None


def cell_supervisor(
    *, workers: int, retry: RetryPolicy, name: str = "sweep"
) -> WorkerSupervisor:
    """A new :class:`WorkerSupervisor` that :func:`run_cells` can run on.

    No process starts until the first supervised batch.  The caller owns
    the pool's lifetime (``with cell_supervisor(...) as supervisor:``),
    as the service's scheduler does; :meth:`SweepEngine.run` uses the
    process's warm pool instead (:func:`close_cell_pool`).
    """
    return WorkerSupervisor(
        execute_cell_payload,
        workers=workers,
        policy=retry,
        retry_value_signal=_cell_retry_signal,
        name=name,
    )


# ----------------------------------------------------------------------
# The process's warm cell pool: one slot that outlives every engine.
# ----------------------------------------------------------------------
_warm_lock = threading.Lock()
#: ``(key, supervisor)`` of the warm pool, or None before the first run
_warm_slot: tuple[tuple, WorkerSupervisor] | None = None


def _warm_key(workers: int, retry: RetryPolicy) -> tuple:
    """What a forked worker fixed at its fork and a run must match.

    Besides the task function and the pool's shape: the environment
    (cells read ``REPRO_CHAOS_*`` and ``REPRO_VERIFY`` from it) and the
    registered schemes (a scheme class defined after the fork is unknown
    to the worker).
    """
    return (
        execute_cell_payload, workers, retry,
        dict(os.environ), tuple(SCHEME_REGISTRY),
    )


@contextlib.contextmanager
def _cell_pool(workers: int, retry: RetryPolicy):
    """Yield the supervisor a :meth:`SweepEngine.run` runs its cells on.

    That is the process's warm pool, whose healthy idle workers stay
    alive for the next run.  A run with another key replaces it.  A run
    that finds it in use by another thread gets a private pool, closed
    at the run's end; so does ``workers=1``, which runs inline.
    """
    global _warm_slot
    if workers > 1 and _warm_lock.acquire(blocking=False):
        try:
            key = _warm_key(workers, retry)
            if _warm_slot is None or _warm_slot[0] != key:
                if _warm_slot is not None:
                    _warm_slot[1].close()
                _warm_slot = (key, cell_supervisor(workers=workers, retry=retry))
            yield _warm_slot[1]
        finally:
            _warm_lock.release()
        return
    with cell_supervisor(workers=workers, retry=retry) as private:
        yield private


def close_cell_pool() -> None:
    """Stop the warm sweep workers; the next multi-worker run forks anew.

    Waits for a run that is using the pool to finish.  Interpreter exit
    stops them without this call.
    """
    global _warm_slot
    with _warm_lock:
        if _warm_slot is not None:
            _warm_slot[1].close()
            _warm_slot = None


def run_cells(
    batch: list[PlannedCell],
    supervisor: WorkerSupervisor,
    *,
    cell_deadline_s: float | None = None,
    counts: dict[str, int] | None = None,
):
    """Yield ``(position, row | CellError)`` for every cell of ``batch``.

    ``position`` indexes ``batch``; results arrive in completion order.
    When ``supervisor`` was built for one worker every payload runs
    inline through :func:`execute_cell_payload`.  Otherwise the
    supervisor's workers run them, warm from any earlier batch: idle
    workers steal the next cell (batches follow the grid's
    workload-major order, so a worker's trace cache keeps hitting), and
    hung / killed / crashing cells are retried, quarantined, or drained
    serially per ``docs/RESILIENCE.md``.

    A payload that carries its group's queueing results (a ninth field,
    see :func:`execute_cell_payload`) has its fresh result added to them
    as it lands.  The supervisor dispatches the next cell only after the
    caller has taken the previous one, and it pickles the payload then,
    so every later cell of the group sees every result landed before.

    Each cell's deadline is ``cell_deadline_s`` when given (``0``
    disables deadlines), else the supervisor policy's ``deadline_s`` of
    the cell's trace size.  A cell that never produced a value becomes
    a :class:`CellError` built from the supervisor's failure report,
    and every supervised :class:`CellError` carries the cell's
    ``attempts`` and ``last_signal``.  ``counts``, when given, receives
    ``queueing_reused`` (the cells that reused a twin's queueing) once
    the batch finishes, and the supervisor's counters when supervised.
    """
    reused = 0
    if supervisor.workers <= 1:
        for pos, pc in enumerate(batch):
            value = execute_cell_payload(pc.payload)
            reused += _fold_landed(pc.payload, value)
            yield pos, value[1]
        if counts is not None:
            counts["queueing_reused"] = reused
        return
    policy = supervisor.policy

    def deadline_for(payload: tuple) -> float | None:
        if cell_deadline_s is not None:
            return cell_deadline_s if cell_deadline_s > 0 else None
        return policy.deadline_s(payload[5])  # the cell's requests_per_core

    for report in supervisor.run(
        ((pos, pc.payload) for pos, pc in enumerate(batch)),
        deadline_for=deadline_for,
    ):
        if report.failure is not None:
            # The cell never produced a value: synthesize the error row
            # from its coordinates.
            cell = batch[report.task_id].cell
            yield report.task_id, CellError(
                workload=cell.workload,
                scheme=cell.scheme,
                seed=cell.seed,
                variant=cell.variant,
                error_type=report.failure.error_type,
                message=report.failure.message,
                traceback_text=report.failure.traceback_text,
                attempts=report.attempts,
                last_signal=report.last_signal,
            )
            continue
        reused += _fold_landed(batch[report.task_id].payload, report.value)
        result = report.value[1]
        if isinstance(result, CellError) and (
            report.attempts > 1 or report.last_signal
        ):
            result = dataclasses.replace(
                result,
                attempts=report.attempts,
                last_signal=report.last_signal or "exception",
            )
        yield report.task_id, result
    if counts is not None:
        counts.update(supervisor.counts(), queueing_reused=reused)


def cell_meta(cell: SweepCell, lane: str, salt: str) -> dict:
    """Provenance stamped on every cache entry and journal line.

    The same record for the engine and the service, so both stores
    describe a row identically.  Stamping the salt lets a later resume
    distinguish "journal from other sources" (StaleJournalError) from
    "journal for a different grid".
    """
    return {
        "scheme": cell.scheme,
        "workload": cell.workload,
        "seed": cell.seed,
        "variant": cell.variant,
        "lane": lane,
        "salt": salt,
    }


# ----------------------------------------------------------------------
# The engine.
# ----------------------------------------------------------------------
class SweepEngine:
    """Run (scheme x workload x seed) grids under one config, parallel + cached.

    Re-running a grid against the same cache re-executes only the cells
    it does not hold yet, which is how a crashed sweep resumes.

    Parameters
    ----------
    config:
        The :class:`SystemConfig` every cell runs under; defaults to the
        paper's Table II.
    requests_per_core:
        Synthetic trace length per core.
    root_seed:
        Trace seed for single-seed grids, and the root that
        :func:`derive_cell_seeds` expands for replicated-seed grids.
    workers:
        Process count; ``1`` (the default) runs inline with zero
        multiprocessing machinery on exactly the same per-cell code.
    cache:
        ``None`` (default) enables the on-disk result cache unless the
        ``REPRO_NO_CACHE`` environment variable is set; ``True`` forces
        it on; ``False`` disables it; a :class:`ResultCache` instance is
        used as-is.
    cache_dir:
        Store location override (default: ``REPRO_CACHE_DIR`` or
        ``~/.cache/tetris-write/results``).
    journal:
        Optional cache-independent checkpoint: a :class:`SweepJournal`,
        or a path to create one at.  Every completed cell is durably
        appended; ``run(resume=True)`` replays journaled cells without
        re-executing them.
    retry:
        :class:`RetryPolicy` for the worker supervisor (defaults shared
        with ``docs/RESILIENCE.md``).
    cell_deadline_s:
        Per-cell wall-clock deadline override.  ``None`` (default)
        scales the deadline by trace size via the policy
        (:meth:`RetryPolicy.deadline_s`); ``0`` disables deadlines.
    fastpath:
        Lane policy, one of :data:`FASTPATH_MODES`.  ``"off"`` (the
        default — library callers keep byte-identical DES behaviour)
        runs every cell through the DES; ``"auto"`` prices
        envelope-inside cells analytically; ``"force"`` raises
        :class:`~repro.fastpath.FastpathEnvelopeError` for any cell the
        envelope rejects.
    recheck_fraction:
        Fraction of fastpath cells re-run through the DES and compared
        under the agreement bands after the grid completes (seeded
        sampling, min 1 when any fastpath cell exists; ``0`` disables).
    certificate_path:
        When set, the run's lane certificate is also written to this
        path as JSON (it is always attached to the
        :class:`SweepResult`).
    """

    def __init__(
        self,
        *,
        config: SystemConfig | None = None,
        requests_per_core: int = 4000,
        root_seed: int = 20160816,
        workers: int = 1,
        cache: object | None = None,
        cache_dir: str | Path | None = None,
        journal: SweepJournal | str | Path | None = None,
        retry: RetryPolicy | None = None,
        cell_deadline_s: float | None = None,
        fastpath: str = "off",
        recheck_fraction: float = DEFAULT_RECHECK_FRACTION,
        certificate_path: str | Path | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if fastpath not in FASTPATH_MODES:
            raise ValueError(
                f"fastpath must be one of {FASTPATH_MODES}, got {fastpath!r}"
            )
        if not 0.0 <= recheck_fraction <= 1.0:
            raise ValueError("recheck_fraction must be in [0, 1]")
        self.base_config = config if config is not None else default_config()
        self.requests_per_core = int(requests_per_core)
        self.root_seed = int(root_seed)
        self.workers = int(workers)
        self.cache = self._resolve_cache(cache, cache_dir)
        if journal is None or isinstance(journal, SweepJournal):
            self.journal = journal
        else:
            self.journal = SweepJournal(journal)
        self.retry = retry if retry is not None else RetryPolicy()
        self.cell_deadline_s = cell_deadline_s
        self.fastpath = fastpath
        self.recheck_fraction = float(recheck_fraction)
        self.certificate_path = (
            str(certificate_path) if certificate_path is not None else None
        )

    @staticmethod
    def _resolve_cache(cache, cache_dir) -> ResultCache | None:
        if isinstance(cache, ResultCache):
            return cache
        if cache is False:
            return None
        if cache is None and cache_disabled_by_env():
            return None
        root = Path(cache_dir) if cache_dir is not None else default_cache_dir()
        return ResultCache(root)

    # ------------------------------------------------------------------
    def grid(
        self,
        schemes: tuple[str, ...],
        workloads: tuple[str, ...] = WORKLOAD_NAMES,
        *,
        seeds: int | tuple[int, ...] | None = None,
    ) -> list[SweepCell]:
        """Enumerate cells in the deterministic grid order rows use:
        seed-major, then workload, with schemes innermost (the order the
        serial runner produced)."""
        if seeds is None:
            seed_list: tuple[int, ...] = (self.root_seed,)
        elif isinstance(seeds, int):
            seed_list = derive_cell_seeds(self.root_seed, seeds)
        else:
            seed_list = tuple(int(s) for s in seeds)
        return [
            SweepCell(workload=w, scheme=s, seed=seed)
            for seed in seed_list
            for w in workloads
            for s in schemes
        ]

    def _trace_key(self, cell: SweepCell) -> str:
        """Cache-key component identifying the cell's trace by its
        generation coordinates (the generator itself is covered by the
        cache's code salt)."""
        return (
            f"synthetic:{cell.workload}:{self.requests_per_core}:"
            f"{self.base_config.cpu.num_cores}:{cell.seed}"
        )

    def _salt(self) -> str:
        """Code-version salt shared by cache and journal addressing."""
        return self.cache.salt if self.cache is not None else code_salt()

    def _lane(self, first: SweepCell) -> tuple[str, tuple[str, ...]]:
        """Assign the grid's execution lane under the ``fastpath`` policy.

        The envelope reads only the config, so one decision holds for
        every cell.  Returns ``(lane, reasons)``; ``reasons`` explains a
        DES routing (empty for the fastpath lane) and lands in the run
        certificate.  Under ``force`` the error names ``first``, the
        grid's first cell.
        """
        if self.fastpath == "off":
            return "des", ("fastpath-off",)
        decision = classify(self.base_config, first.scheme)
        if decision.inside:
            return "fastpath", ()
        if self.fastpath == "force":
            raise FastpathEnvelopeError(
                first.scheme, first.workload, decision.reasons
            )
        return "des", decision.reasons

    def _cache_key(self, cell: SweepCell, config_json: str, lane: str) -> str | None:
        if self.cache is None:
            return None
        return self.cache.cell_key(
            config_json=config_json,
            trace_key=self._trace_key(cell),
            scheme=cell.scheme,
            lane=lane,
        )

    def _journal_key(self, cell: SweepCell, config_json: str, lane: str) -> str:
        return journal_cell_key(
            config_json=config_json,
            trace_key=self._trace_key(cell),
            scheme=cell.scheme,
            salt=self._salt(),
            lane=lane,
        )

    def _journal_append(self, pc: PlannedCell, row_dict: dict) -> None:
        if self.journal is not None:
            self.journal.append(
                pc.journal_key,
                row_dict,
                meta=cell_meta(pc.cell, pc.lane, self._salt()),
            )

    # ------------------------------------------------------------------
    def plan(
        self,
        schemes: tuple[str, ...],
        workloads: tuple[str, ...] = WORKLOAD_NAMES,
        *,
        seeds: int | tuple[int, ...] | None = None,
    ) -> list[PlannedCell]:
        """Resolve the grid into executable, content-addressed cells.

        Each :class:`PlannedCell` carries the worker payload plus the
        cache and journal keys :meth:`run` itself would compute, in grid
        order.  The sweep service plans through this method so its
        dedup, caching, and results are bit-identical to a serial run.
        """
        cells = self.grid(tuple(schemes), tuple(workloads), seeds=seeds)
        if not cells:
            return []
        cfg = self.base_config.canonical_json()
        lane, reasons = self._lane(cells[0])
        return [
            PlannedCell(
                index=idx,
                cell=cell,
                payload=(
                    idx,
                    cell.workload,
                    cell.scheme,
                    cell.seed,
                    cell.variant,
                    self.requests_per_core,
                    cfg,
                    lane,
                ),
                cache_key=self._cache_key(cell, cfg, lane),
                journal_key=self._journal_key(cell, cfg, lane),
                lane=lane,
                lane_reasons=reasons,
            )
            for idx, cell in enumerate(cells)
        ]

    # ------------------------------------------------------------------
    def run(
        self,
        schemes: tuple[str, ...],
        workloads: tuple[str, ...] = WORKLOAD_NAMES,
        *,
        seeds: int | tuple[int, ...] | None = None,
        resume: bool = False,
    ) -> SweepResult:
        """Run the grid and return outcomes in grid order.

        With ``workers > 1`` the cells run on the process's warm pool:
        its workers are forked at the first run and stay alive for the
        next, in this engine or another, until :func:`close_cell_pool`
        or interpreter exit.  A changed environment, worker count or
        retry policy forks a new pool.

        With ``resume=True`` (requires a journal) cells already recorded
        in the journal are replayed from it — zero re-execution — and
        the reassembled grid is byte-identical to an uninterrupted run.
        """
        from repro.experiments.runner import ExperimentResult

        start = time.perf_counter()
        planned = self.plan(tuple(schemes), tuple(workloads), seeds=seeds)
        journaled: dict[str, dict] = {}
        if resume:
            if self.journal is None:
                raise ValueError("resume=True requires a journal")
            journaled = self.journal.load()

        outcomes: dict[int, CellOutcome] = {}
        pending: list[PlannedCell] = []   # cache misses
        # Each (workload, seed)'s landed queueing results, for this run
        # only: its pending payloads carry them (execute_cell_payload).
        carried: dict[tuple[str, int], dict] = {}
        resumed = 0
        for pc in planned:
            if resume and pc.journal_key in journaled:
                outcomes[pc.index] = CellOutcome(
                    pc.cell,
                    row=ExperimentResult(**journaled[pc.journal_key]),
                    resumed=True,
                )
                resumed += 1
                continue
            if pc.cache_key is not None:
                row_dict = self.cache.get(pc.cache_key)
                if row_dict is not None:
                    outcomes[pc.index] = CellOutcome(
                        pc.cell, row=ExperimentResult(**row_dict), cached=True
                    )
                    self._journal_append(pc, row_dict)
                    continue
            group = carried.setdefault((pc.cell.workload, pc.cell.seed), {})
            pending.append(dataclasses.replace(pc, payload=pc.payload + (group,)))

        if (
            resume
            and journaled
            and planned
            and resumed == 0
            and self.journal.salts
            and self._salt() not in self.journal.salts
        ):
            # Journal keys embed the code salt: after a source change
            # every lookup would miss and the "resume" would silently
            # re-execute the whole grid.  Fail loudly instead.
            raise StaleJournalError(
                f"stale journal (code changed); start a fresh journal: "
                f"{self.journal.path} was written under code salt(s) "
                f"{sorted(self.journal.salts)} but the current sources "
                f"hash to {self._salt()}"
            )

        counts: dict[str, int] = {}
        stores_before = self.cache.stats.stores if self.cache else 0
        with _cell_pool(self.workers, self.retry) as pool:
            for pos, result in run_cells(
                pending,
                pool,
                cell_deadline_s=self.cell_deadline_s,
                counts=counts,
            ):
                pc = pending[pos]
                if isinstance(result, CellError):
                    outcomes[pc.index] = CellOutcome(pc.cell, error=result)
                    continue
                outcomes[pc.index] = CellOutcome(pc.cell, row=result)
                row_dict = dataclasses.asdict(result)
                if pc.cache_key is not None:
                    self.cache.put(
                        pc.cache_key,
                        row_dict,
                        meta=cell_meta(pc.cell, pc.lane, self._salt()),
                    )
                self._journal_append(pc, row_dict)
            cache_stores = (
                self.cache.stats.stores - stores_before if self.cache else 0
            )
            recheck_records = self._recheck(planned, outcomes, pool)
        certificate = self._certificate(planned, outcomes, recheck_records)
        if self.certificate_path:
            write_certificate(self.certificate_path, certificate)

        ordered = [outcomes[i] for i in range(len(planned))]
        stats = SweepStats(
            cells=len(planned),
            executed=len(pending),
            queueing_reused=counts.get("queueing_reused", 0),
            cache_hits=sum(1 for o in ordered if o.cached),
            cache_stores=cache_stores,
            resumed=resumed,
            errors=sum(1 for o in ordered if o.error is not None),
            workers=self.workers,
            wall_s=time.perf_counter() - start,
            retries=counts.get("retries", 0),
            timeouts=counts.get("timeouts", 0),
            worker_deaths=counts.get("worker_deaths", 0),
            replacements=counts.get("replacements", 0),
            serial_cells=counts.get("serial_tasks", 0),
            fastpath_cells=sum(1 for pc in planned if pc.lane == "fastpath"),
            des_cells=sum(1 for pc in planned if pc.lane == "des"),
            recheck_samples=len(recheck_records),
            recheck_divergences=sum(
                1 for r in recheck_records if r["divergences"]
            ),
        )
        return SweepResult(outcomes=ordered, stats=stats, certificate=certificate)

    # ------------------------------------------------------------------
    def _recheck(
        self,
        planned: list[PlannedCell],
        outcomes: dict[int, CellOutcome],
        pool: WorkerSupervisor,
    ) -> list[dict]:
        """Differentially re-run a seeded sample of fastpath cells on DES.

        Each sampled cell's analytic row is compared field-by-field
        against the DES row of its twin (the identical payload on the
        ``des`` lane): read from the cache first, otherwise executed
        through :func:`run_cells` on the sweep's own ``pool``, under the
        grid's deadline and retry policy.  Any field outside
        :data:`FIELD_TOLERANCES` is recorded as a divergence in the run
        certificate.  Re-runs do not count as executed cells in
        :class:`SweepStats` — they are a validation overlay, not part of
        the grid.
        """
        candidates = [
            pc.index
            for pc in planned
            if pc.lane == "fastpath" and outcomes[pc.index].row is not None
        ]
        if not candidates:
            return []
        sample = select_recheck_indices(
            candidates, self.recheck_fraction, self.root_seed
        )
        des_rows: dict[int, dict] = {}
        misses: list[PlannedCell] = []
        for i in sample:
            pc = planned[i]
            twin = dataclasses.replace(
                pc,
                payload=pc.payload[:-1] + ("des",),
                cache_key=self._cache_key(pc.cell, pc.payload[6], "des"),
                lane="des",
            )
            cached = self.cache.get(twin.cache_key) if twin.cache_key else None
            if cached is not None:
                des_rows[i] = cached
            else:
                misses.append(twin)

        for pos, result in run_cells(
            misses, pool, cell_deadline_s=self.cell_deadline_s
        ):
            twin = misses[pos]
            if isinstance(result, CellError):
                raise RuntimeError(
                    "differential recheck could not execute the DES lane "
                    f"for cell {twin.index} "
                    f"({twin.cell.workload}/{twin.cell.scheme}):\n"
                    f"{result.format()}"
                )
            row_dict = dataclasses.asdict(result)
            if twin.cache_key is not None:
                self.cache.put(
                    twin.cache_key,
                    row_dict,
                    meta=cell_meta(twin.cell, "des", self._salt()),
                )
            des_rows[twin.index] = row_dict

        samples = [
            (i, dataclasses.asdict(outcomes[i].row)) for i in sample
        ]
        records = recheck_rows(samples, des_rows.__getitem__)
        for rec in records:
            cell = planned[rec["index"]].cell
            rec["workload"] = cell.workload
            rec["scheme"] = cell.scheme
            rec["seed"] = cell.seed
            rec["variant"] = cell.variant
        return records

    def _certificate(
        self,
        planned: list[PlannedCell],
        outcomes: dict[int, CellOutcome],
        recheck_records: list[dict],
    ) -> dict:
        """Build the per-run lane certificate (always, even fastpath=off)."""
        cert_cells = []
        for pc in planned:
            o = outcomes[pc.index]
            if o.error is not None:
                source = "error"
            elif o.resumed:
                source = "journal"
            elif o.cached:
                source = "cache"
            else:
                source = "executed"
            cert_cells.append(
                {
                    "index": pc.index,
                    "workload": pc.cell.workload,
                    "scheme": pc.cell.scheme,
                    "seed": pc.cell.seed,
                    "variant": pc.cell.variant,
                    "lane": pc.lane,
                    "source": source,
                    "reasons": list(pc.lane_reasons),
                }
            )
        return build_certificate(
            mode=self.fastpath,
            recheck_fraction=self.recheck_fraction,
            cells=cert_cells,
            rechecks=recheck_records,
        )
