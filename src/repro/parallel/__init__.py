"""Parallel experiment infrastructure: supervised fan-out + durability.

Public surface:

* :class:`~repro.parallel.engine.SweepEngine` — fan the (scheme x
  workload x seed) grid under one config over supervised worker
  processes, with deterministic seeding, structured failure capture,
  and checkpoint/resume.  Its workers stay warm across runs until
  :func:`~repro.parallel.engine.close_cell_pool` or interpreter exit.
* :class:`~repro.parallel.supervisor.WorkerSupervisor` — the supervised
  pool itself: per-task deadlines, worker-death detection, bounded
  deterministic retry, quarantine, and serial fallback
  (``docs/RESILIENCE.md``).
* :class:`~repro.parallel.journal.SweepJournal` — append-only fsync'd
  completion log enabling ``run(resume=True)`` after a crash.
* :class:`~repro.parallel.resultcache.ResultCache` — content-addressed
  on-disk store keyed by (config, trace, scheme, code-version salt),
  with per-entry digests and quarantine of corrupt entries.

Work executes one way: :func:`~repro.parallel.engine.run_cells` runs a
batch of planned cells on a supervisor — the sweep grid, its sampled
fastpath recheck and the sweep service's batches alike.  The analytic
ablation and crossover sweeps are plain loops.
"""

from repro.parallel.engine import (
    CellError,
    CellOutcome,
    SweepCell,
    SweepCellError,
    SweepEngine,
    SweepResult,
    SweepStats,
    close_cell_pool,
    default_workers,
    derive_cell_seeds,
)
from repro.parallel.journal import (
    StaleJournalError,
    SweepJournal,
    journal_cell_key,
)
from repro.parallel.resultcache import (
    CacheStats,
    ResultCache,
    cache_disabled_by_env,
    code_salt,
    default_cache_dir,
    row_digest,
)
from repro.parallel.supervisor import (
    RetryPolicy,
    TaskFailure,
    TaskReport,
    WorkerSupervisor,
    retry_jitter,
)

__all__ = [
    "CacheStats",
    "CellError",
    "CellOutcome",
    "ResultCache",
    "StaleJournalError",
    "RetryPolicy",
    "SweepCell",
    "SweepCellError",
    "SweepEngine",
    "SweepJournal",
    "SweepResult",
    "SweepStats",
    "TaskFailure",
    "TaskReport",
    "WorkerSupervisor",
    "cache_disabled_by_env",
    "close_cell_pool",
    "code_salt",
    "default_cache_dir",
    "default_workers",
    "derive_cell_seeds",
    "journal_cell_key",
    "retry_jitter",
    "row_digest",
]
