"""Job model of the sweep service: grids, content-addressed IDs, journal.

A *job* is one tenant's experiment grid.  The submitted
:class:`GridSpec` is expanded into cells by the **same planner the
serial engine uses** (:meth:`repro.parallel.engine.SweepEngine.plan`),
so a cell's payload, cache key, and journal key are bit-identical to
what ``SweepEngine.run()`` would compute — which is what makes
cross-tenant single-flight dedup and cache sharing sound.

Identity discipline (mirrors :class:`~repro.parallel.resultcache.
ResultCache`):

* a **cell ID** is its journal content address — sha256 over canonical
  config JSON, trace key, scheme, and the code-version salt;
* a **job ID** is sha256 over the salt, the tenant, and the grid's
  canonical JSON — resubmitting the same grid is idempotent (same job),
  and any source change rolls every ID.

Durability: :class:`JobStore` appends ``submitted`` / ``done`` /
``cancelled`` markers to an fsync'd :class:`~repro.parallel.journal.
SweepJournal`.  A restarted server replays the markers, re-plans every
unfinished job, and re-queues only the cells whose rows are not
already in the shared result cache — zero re-execution of finished
work (``docs/SERVICE.md``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.parallel.engine import FASTPATH_MODES, PlannedCell, SweepEngine
from repro.parallel.journal import SweepJournal
from repro.schemes import SCHEME_REGISTRY
from repro.service.protocol import E_BAD_GRID, ProtocolError
from repro.trace.workloads import WORKLOAD_NAMES

__all__ = [
    "GridSpec",
    "JOB_STATES",
    "Job",
    "JobStore",
    "job_id_for",
]

JOB_STATES = ("queued", "running", "done", "cancelled")

#: Admission ceiling on grid size: cells = schemes x workloads.  A grid
#: larger than this is a client error, not a queueable job.
MAX_GRID_CELLS = 4096


@dataclass(frozen=True)
class GridSpec:
    """One submitted experiment grid (the ``"grid"`` object on the wire)."""

    schemes: tuple[str, ...]
    workloads: tuple[str, ...]
    requests_per_core: int = 400
    seed: int = 20160816
    #: Analytic-lane policy for this grid; "off" keeps server results
    #: bit-identical to pre-fastpath deployments unless a tenant opts in.
    fastpath: str = "off"

    @classmethod
    def from_dict(cls, doc: object) -> "GridSpec":
        """Validate a wire-level grid object; ``bad-grid`` on anything off.

        Validation happens at admission so a typo'd scheme name is a
        structured error to the submitting client, not a crashed cell
        an hour into the queue.
        """
        if not isinstance(doc, dict):
            raise ProtocolError(
                E_BAD_GRID, f"grid must be an object, got {type(doc).__name__}"
            )
        unknown = set(doc) - {
            "schemes", "workloads", "requests_per_core", "seed", "fastpath",
        }
        if unknown:
            raise ProtocolError(
                E_BAD_GRID, f"unknown grid field(s): {sorted(unknown)}"
            )
        schemes = doc.get("schemes")
        workloads = doc.get("workloads")
        if not isinstance(schemes, (list, tuple)) or not schemes:
            raise ProtocolError(E_BAD_GRID, "grid.schemes must be a non-empty list")
        if not isinstance(workloads, (list, tuple)) or not workloads:
            raise ProtocolError(E_BAD_GRID, "grid.workloads must be a non-empty list")
        for s in schemes:
            if s not in SCHEME_REGISTRY:
                raise ProtocolError(
                    E_BAD_GRID,
                    f"unknown scheme {s!r} "
                    f"(registered: {sorted(SCHEME_REGISTRY)})",
                )
        for w in workloads:
            if w not in WORKLOAD_NAMES:
                raise ProtocolError(
                    E_BAD_GRID,
                    f"unknown workload {w!r} (known: {list(WORKLOAD_NAMES)})",
                )
        requests = doc.get("requests_per_core", 400)
        seed = doc.get("seed", 20160816)
        if not isinstance(requests, int) or isinstance(requests, bool) or requests < 1:
            raise ProtocolError(
                E_BAD_GRID, "grid.requests_per_core must be a positive integer"
            )
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise ProtocolError(
                E_BAD_GRID, "grid.seed must be a non-negative integer"
            )
        fastpath = doc.get("fastpath", "off")
        if fastpath not in FASTPATH_MODES:
            raise ProtocolError(
                E_BAD_GRID,
                f"grid.fastpath must be one of {list(FASTPATH_MODES)}, "
                f"got {fastpath!r}",
            )
        if len(schemes) * len(workloads) > MAX_GRID_CELLS:
            raise ProtocolError(
                E_BAD_GRID,
                f"grid has {len(schemes) * len(workloads)} cells "
                f"(limit {MAX_GRID_CELLS}); split the submission",
            )
        return cls(
            schemes=tuple(dict.fromkeys(schemes)),
            workloads=tuple(dict.fromkeys(workloads)),
            requests_per_core=requests,
            seed=seed,
            fastpath=fastpath,
        )

    def to_dict(self) -> dict:
        return {
            "schemes": list(self.schemes),
            "workloads": list(self.workloads),
            "requests_per_core": self.requests_per_core,
            "seed": self.seed,
            "fastpath": self.fastpath,
        }

    def engine(self, *, cache, cache_dir=None, workers: int = 1) -> SweepEngine:
        """The planning/execution engine for this grid.

        ``cache`` follows :class:`SweepEngine` semantics (instance /
        ``None`` for the env default / ``False`` to disable), so the
        server's shared store and the client's degraded mode both plan
        with identical keys.
        """
        return SweepEngine(
            requests_per_core=self.requests_per_core,
            root_seed=self.seed,
            workers=workers,
            cache=cache,
            cache_dir=cache_dir,
            fastpath=self.fastpath,
        )

    def plan(self, *, cache) -> list[PlannedCell]:
        return self.engine(cache=cache).plan(self.schemes, self.workloads)


def job_id_for(tenant: str, spec: GridSpec, salt: str) -> str:
    """Deterministic content-addressed job ID (code-salted like the cache)."""
    h = hashlib.sha256()
    for part in ("job:1", salt, tenant, json.dumps(spec.to_dict(), sort_keys=True)):
        h.update(part.encode())
        h.update(b"\x00")
    return "j" + h.hexdigest()[:16]


@dataclass
class Job:
    """Runtime state of one accepted grid (server side).

    ``rows``/``errors`` are keyed by the planned cell's grid index so
    the final ``rows`` list reassembles in grid order — the exact order
    a serial ``SweepEngine.run()`` would return.
    """

    job_id: str
    tenant: str
    spec: GridSpec
    planned: list[PlannedCell]
    state: str = "queued"
    rows: dict[int, dict] = field(default_factory=dict)
    errors: dict[int, dict] = field(default_factory=dict)
    cached_cells: int = 0      # served from completed rows/cache, no execution
    deduped_cells: int = 0     # attached to another tenant's in-flight cell
    executed_cells: int = 0    # cells this job triggered execution of
    #: asyncio.Queue sinks of active ``watch`` streams (server-managed)
    subscribers: list = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.planned)

    @property
    def done(self) -> int:
        return len(self.rows) + len(self.errors)

    @property
    def finished(self) -> bool:
        return self.state in ("done", "cancelled")

    def ordered_rows(self) -> list[dict]:
        """Successful rows in grid order (serial-run order)."""
        return [self.rows[i] for i in sorted(self.rows)]

    def ordered_errors(self) -> list[dict]:
        return [self.errors[i] for i in sorted(self.errors)]

    def snapshot(self, *, queue_position: int = 0, eta_s: float = 0.0) -> dict:
        """The ``status``/``progress`` view of this job."""
        return {
            "job": self.job_id,
            "tenant": self.tenant,
            "state": self.state,
            "total": self.total,
            "done": len(self.rows),
            "failed": len(self.errors),
            "cached": self.cached_cells,
            "deduped": self.deduped_cells,
            "executed": self.executed_cells,
            "fastpath_cells": sum(
                1 for pc in self.planned if pc.lane == "fastpath"
            ),
            "des_cells": sum(1 for pc in self.planned if pc.lane == "des"),
            "queue_position": queue_position,
            "eta_s": eta_s,
        }


class JobStore:
    """Durable job lifecycle markers on an fsync'd append-only journal.

    Keys are ``{job_id}:{event}`` with ``event`` in ``submitted`` /
    ``done`` / ``cancelled``; the :class:`SweepJournal` dedup makes
    every marker idempotent.  Cell *results* live in the shared result
    cache, never here — this store only has to answer
    "which jobs were accepted and not yet finished?" after a restart.
    """

    def __init__(self, path: str | Path, *, fsync: bool = True) -> None:
        self.journal = SweepJournal(path, fsync=fsync)
        self._records = self.journal.load()

    def record_submitted(self, job: Job) -> None:
        self.journal.append(
            f"{job.job_id}:submitted",
            {"tenant": job.tenant, "grid": job.spec.to_dict()},
        )

    def record_done(self, job_id: str) -> None:
        self.journal.append(f"{job_id}:done", {})

    def record_cancelled(self, job_id: str) -> None:
        self.journal.append(f"{job_id}:cancelled", {})

    def pending_jobs(self) -> list[tuple[str, str, GridSpec]]:
        """``(job_id, tenant, spec)`` for accepted-but-unfinished jobs.

        Invalid persisted grids (e.g. a scheme renamed across versions)
        are skipped: the journal must never brick a restart.
        """
        records = self.journal.load()
        pending: list[tuple[str, str, GridSpec]] = []
        for key, row in records.items():
            job_id, _, event = key.rpartition(":")
            if event != "submitted":
                continue
            if f"{job_id}:done" in records or f"{job_id}:cancelled" in records:
                continue
            try:
                spec = GridSpec.from_dict(row.get("grid"))
            except ProtocolError:
                continue
            pending.append((job_id, str(row.get("tenant", "default")), spec))
        return sorted(pending)
