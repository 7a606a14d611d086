"""The benchmark's four workloads: set-up, timed phase and output checks.

Why these four (each stresses a different layer, and each layer change
has one workload that exercises it and one that bypasses it):

* ``des_grid`` -- the paper's evaluation (Figs 11-14): five schemes x
  eight PARSEC mixes, every cell through the discrete-event simulator.
  The DES event loop is ~95 % of its host time, so a simulator gain
  shows here and a fastpath change must show nothing.
* ``zoo_fastpath`` -- all eleven registered schemes x eight mixes under
  ``fastpath="auto"`` (the CLI default): analytic pricing, the queueing
  model, PALP's DES cells and ``tetris_relaxed``'s per-write loop.  This
  is where merging or vectorizing the write pricing shows, as a gain or
  as a regression.
* ``service_openloop`` -- the job server driven open-loop by one
  generator process.  The only workload through DRR fair queueing,
  single-flight dedup, the job store's fsyncs and the per-batch worker
  spawn.
* ``warm_resume`` -- re-runs of a filled cache followed by journal
  resumes: no simulation at all, so cache reads, journal appends and
  loads, planning and the certificate are all of the work.

A *job* is what one user waits for: one ``SweepEngine.run`` of every
scheme on one mix and trace seed (the cold sweeps), a warm re-run plus a
resume of one mix and trace seed (warm_resume), or one submitted grid
(the service).  Every workload times at least 24 distinct jobs, so each
median rests on 24 or more samples.

The host the baseline was measured on runs the same work up to a third
slower for seconds to minutes at a time.  Two things keep the sweeps and
warm_resume steady against that:

* each job's wall time is scaled to the reference speed by a
  ``SpeedGauge`` reading taken just before it (set-ups too);
* jobs run in rounds, every job once per round (cold sweeps on a fresh
  cache each round), and each job counts with the median of its scaled
  times.  (The best time would pick out the gauge's own noise: a slow
  reading before a fast job.)

The number of rounds comes from ``--seconds`` at the baseline host's
speed, so every run does the same work.  The open loop can be neither
repeated (a resubmitted grid is a cache hit) nor gauged (the gauge would
compete with the server it measures), so each service job is timed once,
in wall time.

Before its timed phase each workload flushes the file system's dirty
data (``os.sync``), so writeback left by set-up, or by the run before,
does not land on the timed phase's fsyncs.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

from harness import (
    ROOT,
    NoSpans,
    SpeedGauge,
    hermetic_env,
    peak_rss_mb,
    stop_process,
)
from repro.fastpath.agreement import compare_rows
from repro.oracle import paper_claims
from repro.parallel import (
    ResultCache,
    SweepEngine,
    SweepJournal,
    derive_cell_seeds,
)
from repro.schemes import COMPARED_SCHEMES, SCHEME_REGISTRY
from repro.service import ProtocolError, ServiceClient, run_inprocess
from repro.trace.workloads import WORKLOAD_NAMES

WORKERS = 2
#: The schemes of the paper's Figs 11-14 (DCW is the baseline).
FIG_SCHEMES = ("dcw",) + tuple(COMPARED_SCHEMES)
ZOO_SCHEMES = tuple(sorted(SCHEME_REGISTRY))
SETUP_REPEATS = 5

WARM_REQUESTS = 200
#: Trace seeds of the filled grid: 8 mixes x 3 seeds = 24 warm jobs.
WARM_SEEDS = 3
WARM_ROUND_S = 0.9          # one round of the warm jobs on the baseline host

SERVICE_SCHEMES = ("dcw", "tetris")
SERVICE_CELLS_PER_JOB = 2 * len(SERVICE_SCHEMES)      # two mixes per job
SERVICE_REQUESTS = 1000
SERVICE_PAIR_RATE = 1.2     # job pairs per second (one job per tenant)
SERVICE_TENANTS = ("alice", "bob")
POLL_S = 0.005

#: Paper claims whose gap to the paper's point value is ``paper_gap_pct``.
CLAIM_METRICS = {
    "fig11_tetris_runtime": "running_time",
    "fig12_tetris_ipc": "ipc_improvement",
    "fig13_tetris_read_latency": "read_latency",
}
HEAVY_MIXES = ("dedup", "ferret", "vips")
ACCURACY_FIELDS = ("read_latency_ns", "write_latency_ns", "ipc", "runtime_ns")
#: The accuracy reference: dcw and tetris on the heavy mixes at the
#: paper grid's trace length, on a fixed trace seed.
REFERENCE_REQUESTS = 4000
REFERENCE_SEED = 0


@dataclass(frozen=True)
class Sweep:
    """A cold-sweep workload: ``jobs`` jobs of every scheme on one mix.

    ``round_s`` is one round of all jobs on the baseline host; a run
    does ``round(seconds / round_s)`` rounds.
    """

    schemes: tuple[str, ...]
    requests: int
    fastpath: str
    jobs: int
    round_s: float


#: 1000 requests/core keep a job near 0.35 s, so 24 jobs fit twice in a
#: run; the paper-claim bands hold at that length (32 of 32 trace seeds).
DES_GRID = Sweep(FIG_SCHEMES, 1000, "off", 24, 9.0)
#: Half the paper grid's length keeps a job near 0.3 s; the analytic
#: lane's accuracy is judged on the reference, at the full length.
ZOO_FASTPATH = Sweep(ZOO_SCHEMES, 2000, "auto", 24, 9.0)


# ----------------------------------------------------------------------
# What a run measured.
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """Measurements and failed checks of one workload run."""

    setup_s: list[float] = field(default_factory=list)
    #: Every run's first-row and done latency (ms), by job.
    first_row_ms: dict[str, list[float]] = field(default_factory=dict)
    job_done_ms: dict[str, list[float]] = field(default_factory=dict)
    job_cells: dict[str, int] = field(default_factory=dict)
    cells: int = 0              # cells delivered ...
    wall_s: float = 0.0         # ... in this many seconds
    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    context: dict = field(default_factory=dict)

    def add_job(self, job: str, cells: int, due: float, first_row_at: float,
                done_at: float, scale: float = 1.0) -> None:
        """One run of ``job``, its times multiplied by ``scale``."""
        self.first_row_ms.setdefault(job, []).append(
            (first_row_at - due) * 1e3 * scale)
        self.job_done_ms.setdefault(job, []).append((done_at - due) * 1e3 * scale)
        self.job_cells[job] = cells

    def rate_of_jobs(self) -> None:
        """Cells per second of the jobs run back to back, each taking its
        median time."""
        self.cells = sum(self.job_cells.values())
        self.wall_s = sum(per_job(self.job_done_ms)) / 1e3

    def check(self, where: str, problems: list[str]) -> None:
        self.problems.extend(f"{where}: {p}" for p in problems)


def per_job(times: dict[str, list[float]]) -> list[float]:
    """Each job's median time over its runs."""
    return [median(runs) for runs in times.values()]


class TimedJournal(SweepJournal):
    """A sweep journal that notes when its first row became durable."""

    def __init__(self, path) -> None:
        super().__init__(path)
        self.first_append_at: float | None = None

    def append(self, key, row, *, meta=None) -> bool:
        appended = super().append(key, row, meta=meta)
        if appended and self.first_append_at is None:
            self.first_append_at = time.perf_counter()
        return appended


def sweep_jobs(seed: int, n: int) -> list[tuple[str, int]]:
    """``(mix, trace seed)`` of ``n`` jobs: the eight mixes in order, on
    the next trace seed derived from ``seed`` every eight jobs.

    The order is the engine's grid order (seed, then mix), and every
    ``--seed`` gets the same mixes in the same proportions.
    """
    seeds = derive_cell_seeds(seed, -(-n // len(WORKLOAD_NAMES)))
    return [(WORKLOAD_NAMES[j % len(WORKLOAD_NAMES)],
             seeds[j // len(WORKLOAD_NAMES)]) for j in range(n)]


# ----------------------------------------------------------------------
# Output checks (pure functions of a run's results; see test_bench.py).
# ----------------------------------------------------------------------
def sweep_problems(result, *, executed: int) -> list[str]:
    """Cell errors and an unexpected execution count."""
    problems = [f"cell failed: {e.format()}" for e in result.errors]
    if result.stats.executed != executed:
        problems.append(
            f"executed {result.stats.executed} cells, expected {executed}"
        )
    return problems


def paper_gap(rows) -> tuple[float, list[str]]:
    """Mean relative gap (%) to the paper's Fig 11-13 Tetris values.

    Also returns the claims whose acceptance band the rows miss.
    """
    base = {r.workload: r for r in rows if r.scheme == "dcw"}
    tetris = {r.workload: r for r in rows if r.scheme == "tetris"}
    missing = [w for w in HEAVY_MIXES if w not in base or w not in tetris]
    if missing:
        return float("nan"), [f"no dcw and tetris rows for {missing}"]
    gaps, problems = [], []
    for name, metric in CLAIM_METRICS.items():
        values = [tetris[w].normalized(base[w])[metric] for w in HEAVY_MIXES]
        value = sum(values) / len(values)
        claim = paper_claims.band(name)
        if not claim.holds(value):
            problems.append(claim.describe(value))
        gaps.append(abs(value - claim.paper) / claim.paper)
    return 100.0 * sum(gaps) / len(gaps), problems


def fastpath_error(des_rows, fast_rows) -> tuple[float, list[str]]:
    """Mean relative error (%) of the analytic lane's rows against the
    DES rows of the same cells.

    Also returns every field outside the fastpath's own agreement bands
    (``repro.fastpath.agreement``): the divergences a recheck reports.
    """
    errors, problems = [], []
    for d, f in zip(des_rows, fast_rows):
        errors += [abs(getattr(f, name) - getattr(d, name)) / abs(getattr(d, name))
                   for name in ACCURACY_FIELDS]
        for div in compare_rows(dataclasses.asdict(f), dataclasses.asdict(d)):
            problems.append(
                f"{d.workload}/{d.scheme}: fastpath {div['field']} "
                f"{div['fastpath']:.6g} vs DES {div['des']:.6g}"
            )
    return 100.0 * sum(errors) / len(errors), problems


def des_job_problems(result) -> list[str]:
    problems = sweep_problems(result, executed=result.stats.cells)
    if any(row.events <= 0 for row in result.rows):
        problems.append("a DES-lane row reports no simulated events")
    return problems


def zoo_job_problems(result) -> list[str]:
    """Besides the sweep checks, a cell may leave the analytic lane only
    because its scheme has no analytic pricing."""
    problems = sweep_problems(result, executed=result.stats.cells)
    for cell in result.certificate["cells"]:
        if cell["lane"] == "des" and cell["reasons"] != ["unpriced-scheme"]:
            problems.append(
                f"{cell['workload']}/{cell['scheme']} left the fastpath "
                f"for {cell['reasons']}"
            )
    return problems


def row_problems(expected: list[dict], got: list[dict]) -> list[str]:
    """Rows must match the reference rows exactly, in order."""
    if len(expected) != len(got):
        return [f"{len(got)} rows, expected {len(expected)}"]
    bad = [
        i for i, (a, b) in enumerate(zip(expected, got))
        if json.dumps(a, sort_keys=True) != json.dumps(b, sort_keys=True)
    ]
    return [f"row {i} differs from the reference" for i in bad]


def rows_of(result) -> list[dict]:
    return [dataclasses.asdict(row) for row in result.rows]


# ----------------------------------------------------------------------
# Accuracy of the code version on a fixed reference.
# ----------------------------------------------------------------------
def reference_accuracy(cache: ResultCache) -> tuple[dict[str, float], list[str]]:
    """``paper_gap_pct`` and ``fastpath_err_pct`` on the fixed reference.

    The DES rows are compared with the paper's Fig 11-13 values; the
    analytic lane's rows for the same cells are compared with the DES.
    The rows go through ``cache``, the program's own result cache, whose
    keys carry the code version: a checkout simulates the reference once
    per version of the code, and both metrics repeat exactly for it.
    """
    def engine(fastpath: str) -> SweepEngine:
        return SweepEngine(
            requests_per_core=REFERENCE_REQUESTS, root_seed=REFERENCE_SEED,
            workers=WORKERS, cache=cache, fastpath=fastpath,
            recheck_fraction=0.0,
        )

    des = engine("off").run(("dcw", "tetris"), HEAVY_MIXES)
    fast = engine("force").run(("dcw", "tetris"), HEAVY_MIXES)
    problems = sweep_problems(des, executed=des.stats.executed)
    problems += sweep_problems(fast, executed=fast.stats.executed)
    if problems:
        return {}, problems
    gap, band_problems = paper_gap(des.rows)
    err, divergences = fastpath_error(des.rows, fast.rows)
    return {"paper_gap_pct": gap, "fastpath_err_pct": err}, band_problems + divergences


# ----------------------------------------------------------------------
# Cold sweeps: des_grid and zoo_fastpath.
# ----------------------------------------------------------------------
#: A sweep's cold start, run by ``sweep_setup`` in a fresh interpreter.
COLD_START = """\
import json, sys
from repro.parallel import ResultCache, SweepEngine, SweepJournal, WorkerSupervisor
from repro.trace.workloads import WORKLOAD_NAMES
root, schemes, requests, fastpath, workers = json.loads(sys.argv[1])
engine = SweepEngine(
    requests_per_core=requests, workers=workers, fastpath=fastpath,
    cache=ResultCache(root + "/cache"),
    journal=SweepJournal(root + "/journal.jsonl"),
)
engine.plan(tuple(schemes), WORKLOAD_NAMES)
reports = list(WorkerSupervisor(len, workers=workers).run(enumerate("ab")))
sys.exit(len(reports) != 2 or any(r.failure for r in reports))
"""


def sweep_setup(root: Path, sweep: Sweep) -> tuple[float, list[str]]:
    """One set-up of a sweep: what ``tetris-write sweep`` does before its
    first cell.

    A fresh interpreter imports the program, builds an engine on a fresh
    cache and journal, plans the workload's whole grid and starts and
    stops a worker pool.  The benchmark process has imported the program
    before its timed phase, so work moved into import time, engine
    construction, planning or the pool shows here and nowhere else.
    Returns the seconds it took and any failure.
    """
    args = json.dumps([str(root), sweep.schemes, sweep.requests,
                       sweep.fastpath, WORKERS])
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", COLD_START, args], cwd=ROOT,
                          env=hermetic_env(), capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    if proc.returncode:
        return elapsed, [f"cold start failed: {proc.stderr.strip()[-500:]}"]
    return elapsed, []


def cold_sweeps(work: Path, seed: int, seconds: float, gauge: SpeedGauge,
                sweep: Sweep, job_problems, trace_seed_problems=None) -> Outcome:
    out = Outcome()
    for i in range(SETUP_REPEATS):
        scale = gauge.scale()
        elapsed, problems = sweep_setup(work / f"setup-{i}", sweep)
        out.setup_s.append(elapsed * scale)
        out.check(f"set-up {i}", problems)
    jobs = sweep_jobs(seed, sweep.jobs)
    first_rows: list[list[dict]] = []
    by_trace_seed: dict[int, list] = {}
    os.sync()
    for r in range(max(1, round(seconds / sweep.round_s))):
        cache = ResultCache(work / f"cache-{r}")
        for j, (mix, trace_seed) in enumerate(jobs):
            journal = TimedJournal(work / f"job-{r}-{j}.jsonl")
            # No DES recheck: in a one-mix job the fastpath's "at least
            # one recheck" rule re-simulates 1 cell in 10 (a full grid
            # rechecks 2 %), which would be half of the job's time and
            # is the DES that des_grid measures.  The reference checks
            # the analytic lane against the DES instead.
            engine = SweepEngine(
                requests_per_core=sweep.requests, workers=WORKERS,
                cache=cache, journal=journal, fastpath=sweep.fastpath,
                recheck_fraction=0.0,
            )
            scale = gauge.scale()
            t0 = time.perf_counter()
            result = engine.run(sweep.schemes, (mix,), seeds=(trace_seed,))
            t1 = time.perf_counter()
            out.add_job(f"{mix}/{trace_seed}", result.stats.cells, t0,
                        journal.first_append_at or t1, t1, scale)
            out.attempted += result.stats.cells
            problems = job_problems(result)
            if r == 0:
                first_rows.append(rows_of(result))
                by_trace_seed.setdefault(trace_seed, []).extend(result.rows)
            else:
                problems += row_problems(first_rows[j], rows_of(result))
            out.check(f"round {r} {mix}/{trace_seed}", problems)
    if trace_seed_problems is not None:
        for trace_seed, rows in by_trace_seed.items():
            out.check(f"trace seed {trace_seed}", trace_seed_problems(rows))
    out.rate_of_jobs()
    out.peak_rss_mb = peak_rss_mb()
    return out


def des_grid(work: Path, seed: int, seconds: float, gauge: SpeedGauge) -> Outcome:
    return cold_sweeps(work, seed, seconds, gauge, DES_GRID, des_job_problems,
                       lambda rows: paper_gap(rows)[1])


def zoo_fastpath(work: Path, seed: int, seconds: float,
                 gauge: SpeedGauge) -> Outcome:
    return cold_sweeps(work, seed, seconds, gauge, ZOO_FASTPATH,
                       zoo_job_problems)


# ----------------------------------------------------------------------
# warm_resume.
# ----------------------------------------------------------------------
def warm_engine(cache: ResultCache, seed: int, journal=None) -> SweepEngine:
    # No DES recheck: at 200 requests/core the analytic lane can leave
    # the agreement bands (ferret/dcw under root seed 5: IPC and runtime
    # ~6 % off), and this workload measures row storage, not accuracy.
    return SweepEngine(
        requests_per_core=WARM_REQUESTS, root_seed=seed, workers=WORKERS,
        cache=cache, journal=journal, fastpath="force", recheck_fraction=0.0,
    )


def fill_cache(root: Path, seed: int, trace_seeds: tuple[int, ...]
               ) -> tuple[ResultCache, list[dict], float, list[str]]:
    """Set-up of warm_resume: price the grid once into a fresh cache."""
    cache = ResultCache(root)
    t0 = time.perf_counter()
    result = warm_engine(cache, seed).run(
        FIG_SCHEMES, WORKLOAD_NAMES, seeds=trace_seeds
    )
    elapsed = time.perf_counter() - t0
    return cache, rows_of(result), elapsed, sweep_problems(
        result, executed=result.stats.cells
    )


def warm_resume(work: Path, seed: int, seconds: float,
                gauge: SpeedGauge) -> Outcome:
    out = Outcome()
    jobs = sweep_jobs(seed, len(WORKLOAD_NAMES) * WARM_SEEDS)
    trace_seeds = tuple(dict.fromkeys(s for _, s in jobs))
    for i in range(SETUP_REPEATS):
        scale = gauge.scale()
        cache, fill_rows, elapsed, problems = fill_cache(
            work / f"fill-{i}", seed, trace_seeds)
        out.setup_s.append(elapsed * scale)
        out.check(f"fill {i}", problems)
    # Jobs are in the fill's grid order, so job j owns its j-th slice.
    n = len(FIG_SCHEMES)
    path = work / "job.jsonl"
    os.sync()
    for r in range(max(1, round(seconds / WARM_ROUND_S))):
        for j, (mix, trace_seed) in enumerate(jobs):
            journal = TimedJournal(path)
            scale = gauge.scale()
            t0 = time.perf_counter()
            warm = warm_engine(cache, seed, journal).run(
                FIG_SCHEMES, (mix,), seeds=(trace_seed,)
            )
            resumed = warm_engine(cache, seed, SweepJournal(path)).run(
                FIG_SCHEMES, (mix,), seeds=(trace_seed,), resume=True
            )
            t1 = time.perf_counter()
            cells = warm.stats.cells + resumed.stats.cells
            out.add_job(f"{mix}/{trace_seed}", cells, t0,
                        journal.first_append_at or t1, t1, scale)
            out.attempted += cells
            problems = sweep_problems(warm, executed=0)
            problems += sweep_problems(resumed, executed=0)
            if resumed.stats.resumed != resumed.stats.cells:
                problems.append(
                    f"resumed {resumed.stats.resumed} of {resumed.stats.cells} cells"
                )
            expected = fill_rows[j * n:(j + 1) * n]
            problems += row_problems(expected, rows_of(warm))
            problems += row_problems(expected, rows_of(resumed))
            out.check(f"round {r} {mix}/{trace_seed}", problems)
            # The journal is not read again; left in place, its
            # writeback would land on later jobs' fsyncs.
            path.unlink()
    out.rate_of_jobs()
    out.peak_rss_mb = peak_rss_mb()
    return out


# ----------------------------------------------------------------------
# service_openloop.
# ----------------------------------------------------------------------
class Server:
    """One ``repro.cli serve`` subprocess on a unix socket under ``root``."""

    def __init__(self, root: Path) -> None:
        root.mkdir(parents=True)
        # A relative socket path keeps clear of the 108-byte sun_path
        # limit however deep the checkout sits.
        sock = root.relative_to(ROOT) / "s.sock"
        self.endpoint = f"unix:{sock}"
        self.log = open(root / "server.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--socket", str(sock),
             "--state-dir", str(root / "state"), "--workers", str(WORKERS)],
            cwd=ROOT, env=hermetic_env(), stdout=self.log,
            stderr=subprocess.STDOUT,
        )

    def wait_ready(self, timeout_s: float = 60.0) -> None:
        client = ServiceClient(self.endpoint)
        limit = time.perf_counter() + timeout_s
        while True:
            try:
                client.ping()
                return
            except (OSError, ProtocolError):
                if self.proc.poll() is not None or time.perf_counter() > limit:
                    raise RuntimeError(
                        f"server did not come up (exit {self.proc.poll()})"
                    ) from None
                time.sleep(POLL_S)

    def stop(self) -> None:
        """Drain (the server exits once every job is finished) and reap."""
        try:
            ServiceClient(self.endpoint).drain()
        except (OSError, ProtocolError):
            self.proc.terminate()
        stop_process(self.proc)
        self.log.close()


def start_server(root: Path) -> tuple[Server, float]:
    """Start a server; returns it and its start-to-ready seconds."""
    t0 = time.perf_counter()
    server = Server(root)
    try:
        server.wait_ready()
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - t0


def service_jobs(seed: int, pairs: int) -> list[tuple[float, str, dict]]:
    """``(due offset s, tenant, grid)`` of every job, in submission order.

    Pair p is one grid -- two schemes x two mixes on trace seed
    ``seed + p`` -- that both tenants submit at the same due time, the
    leader alternating.  The follower's four cells ride on the leader's
    in-flight cells (single-flight dedup), so half of the requested cells
    never execute, and both tenants own queued cells over the run.
    """
    jobs = []
    for p in range(pairs):
        s = seed + p
        grid = {
            "schemes": list(SERVICE_SCHEMES),
            "workloads": [WORKLOAD_NAMES[s % 8], WORKLOAD_NAMES[(s + 3) % 8]],
            "requests_per_core": SERVICE_REQUESTS,
            "seed": s,
        }
        due = p / SERVICE_PAIR_RATE
        tenants = SERVICE_TENANTS if p % 2 == 0 else SERVICE_TENANTS[::-1]
        jobs += [(due, tenant, grid) for tenant in tenants]
    return jobs


@dataclass
class JobRecord:
    index: int
    due: float
    job_id: str = ""
    first_row_at: float | None = None
    done_at: float | None = None
    final: dict | None = None
    error: str = ""


class OpenLoop:
    """The generator: a submitter thread and a status-poller thread.

    Each thread holds at most one socket at a time.  Jobs are due on a
    fixed schedule whatever the server does, and latencies are timed
    from the due time, so a stall also charges the jobs it delays.
    """

    def __init__(self, endpoint: str, jobs, spans=None) -> None:
        self.endpoint = endpoint
        self.jobs = jobs
        self.spans = spans if spans is not None else NoSpans()
        self.records: list[JobRecord] = []
        self.late_s: list[float] = []
        self._open: list[JobRecord] = []
        self._lock = threading.Lock()
        self._submitted = threading.Event()

    def run(self, drain_timeout_s: float = 60.0) -> float:
        """Drive every job to completion; returns the first due time."""
        self.start = time.perf_counter() + 0.05
        threads = [
            threading.Thread(target=self._submit_all, name="submitter"),
            threading.Thread(target=self._poll, args=(drain_timeout_s,),
                             name="poller"),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return self.start

    def _submit_all(self) -> None:
        client = ServiceClient(self.endpoint)
        try:
            for k, (due, tenant, grid) in enumerate(self.jobs):
                rec = JobRecord(index=k, due=self.start + due)
                delay = rec.due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                self.late_s.append(max(0.0, time.perf_counter() - rec.due))
                self.records.append(rec)
                try:
                    with self.spans.span("service.submit", f"job{k}",
                                         tid="submitter"):
                        reply = client.submit(grid, tenant=tenant)
                except (OSError, ProtocolError) as exc:
                    rec.error = f"submit failed: {exc}"
                    continue
                rec.job_id = reply["job"]
                self._observe(rec, reply, time.perf_counter())
                if rec.done_at is None:
                    with self._lock:
                        self._open.append(rec)
        finally:
            self._submitted.set()

    def _observe(self, rec: JobRecord, status: dict, now: float) -> None:
        if rec.first_row_at is None and status.get("done", 0) >= 1:
            rec.first_row_at = now
        if status.get("state") in ("done", "cancelled"):
            rec.first_row_at = rec.first_row_at or now
            rec.done_at = now
            rec.final = status

    def _poll(self, drain_timeout_s: float) -> None:
        client = ServiceClient(self.endpoint)
        limit = None
        while True:
            with self._lock:
                pending = list(self._open)
            if not pending and self._submitted.is_set():
                return
            if self._submitted.is_set():
                limit = limit or time.perf_counter() + drain_timeout_s
                if time.perf_counter() > limit:
                    for rec in pending:
                        rec.error = "job did not finish in time"
                    return
            for rec in pending:
                try:
                    with self.spans.span("service.status", f"job{rec.index}",
                                         tid="poller"):
                        status = client.status(rec.job_id)
                except (OSError, ProtocolError) as exc:
                    rec.error = f"status failed: {exc}"
                    status = {"state": "cancelled"}
                self._observe(rec, status, time.perf_counter())
                if rec.done_at is not None:
                    with self._lock:
                        self._open.remove(rec)
            time.sleep(POLL_S)


def job_problems(rec: JobRecord, cells: int) -> list[str]:
    if rec.error:
        return [rec.error]
    final = rec.final or {}
    if final.get("state") != "done":
        return [f"ended in state {final.get('state')!r}"]
    if final.get("errors"):
        return [f"{len(final['errors'])} cell error(s)"]
    if len(final.get("rows", [])) != cells:
        return [f"{len(final.get('rows', []))} rows, expected {cells}"]
    return []


def drive_service(server: Server, seed: int, seconds: float, out: Outcome,
                  spans=None) -> dict:
    """Run the open loop against ``server``; returns its final counters."""
    # Whole cycles of the eight mixes, so every seed sees the same mix
    # composition and only trace content varies between seeds.
    cycles = max(1, round(seconds * SERVICE_PAIR_RATE / len(WORKLOAD_NAMES)))
    jobs = service_jobs(seed, cycles * len(WORKLOAD_NAMES))
    loop = OpenLoop(server.endpoint, jobs, spans)
    start = loop.run()
    done = []
    for rec in loop.records:
        out.check(f"job {rec.index}", job_problems(rec, SERVICE_CELLS_PER_JOB))
        if rec.done_at is not None and not rec.error:
            out.add_job(f"job{rec.index}", SERVICE_CELLS_PER_JOB, rec.due,
                        rec.first_row_at, rec.done_at)
            done.append(rec.done_at)
    out.attempted += len(jobs)
    if len(loop.records) != len(jobs):
        out.check("generator", [f"submitted {len(loop.records)} of {len(jobs)} jobs"])
    if done:
        # Open loop: below capacity this is the offered rate, and it
        # drops only when the server falls behind.
        out.cells = len(done) * SERVICE_CELLS_PER_JOB
        out.wall_s = max(done) - start
    # Four jobs' rows are re-derived in process: both tenants, both ends.
    sampled = {0, 1, len(jobs) // 2, len(jobs) - 1}
    for rec in loop.records:
        if rec.index in sampled and rec.final is not None:
            local = run_inprocess(jobs[rec.index][2], cache=False)
            out.check(f"job {rec.index} vs in-process",
                      row_problems(local["rows"], rec.final.get("rows", [])))
    out.context["gen_late_ms_max"] = 1e3 * max(loop.late_s, default=0.0)
    return ServiceClient(server.endpoint).status()["counters"]


def service_openloop(work: Path, seed: int, seconds: float,
                     gauge: SpeedGauge) -> Outcome:
    out = Outcome()
    for i in range(SETUP_REPEATS):
        scale = gauge.scale()
        server, elapsed = start_server(work / f"server-{i}")
        out.setup_s.append(elapsed * scale)
        if i < SETUP_REPEATS - 1:
            server.stop()
    try:
        os.sync()
        out.context["counters"] = drive_service(server, seed, seconds, out)
    finally:
        server.stop()
    out.peak_rss_mb = peak_rss_mb()
    return out


WORKLOADS = {
    "des_grid": des_grid,
    "zoo_fastpath": zoo_fastpath,
    "service_openloop": service_openloop,
    "warm_resume": warm_resume,
}


def end_to_end(out: Outcome, accuracy: dict[str, float]) -> dict[str, float]:
    """Every end-to-end metric of one untraced run."""
    return {
        "setup_s": median(out.setup_s),
        "cells_per_s": out.cells / out.wall_s,
        "first_row_p50_ms": median(per_job(out.first_row_ms)),
        "job_done_p50_ms": median(per_job(out.job_done_ms)),
        "peak_rss_mb": out.peak_rss_mb,
        **accuracy,
    }
