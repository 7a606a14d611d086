"""The traced run: per-layer metrics from spans around calls into each layer.

Spans are recorded here, in the benchmark, around calls to each layer's
public functions; nothing inside the program is instrumented.  They go
into a standalone ``Tracer(clock=WallClock())``.  The run never installs
a process-wide tracer and never turns on ``SystemConfig.trace``: either
would reroute cells to the DES (``obs-tracing-enabled``) and make the
simulator record sim-time events, so the traced run would measure a
different program.

Every workload's traced run probes the same layers on the workload's own
inputs (its grid, schemes, trace size and seeds), serially on the main
lane under the root span ``bench.run``:

* the worker's calls for a cell of each probe mix -- ``generate_trace``,
  ``pack_batch``, the DES lane (``precompute_write_service``,
  ``run_fullsystem``) and the analytic lane (``price_write_service``,
  ``model_cell``);
* ``SweepEngine.plan`` and ``classify`` over the workload's grid;
* ``execute_cell_payload`` (the function the engine's workers run) on
  the first probe mix, whose rows feed ``ResultCache.put``/``get`` and
  ``SweepJournal.append``/``load`` on the grid's own keys;
* a ``WorkerSupervisor`` spawn and a payload round trip;
* one single-cell service job (submit, wait, status) -- except on
  ``service_openloop``, whose open loop runs first, under its own root
  span ``bench.openloop``, with the submitter's and the poller's calls
  on their own lanes.

``bench.trace_coverage`` is the share of ``bench.run`` that the main
lane spends inside layer spans (self time; ``bench.*`` spans are the
benchmark's own and count for nothing).  The open loop is left out: its
generator sleeps until each job is due, by design.
"""

from __future__ import annotations

import dataclasses
import pickle
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import numpy as np

import workloads as wl
from harness import DEFAULT_SEED
from repro.core.batch import pack_batch
from repro.experiments.fullsystem import precompute_write_service, run_fullsystem
from repro.fastpath import classify
from repro.fastpath.pricer import model_cell, price_write_service
from repro.obs import Tracer, WallClock
from repro.obs.export import validate_chrome_trace_file, write_chrome_trace
from repro.parallel import (
    CellError,
    ResultCache,
    SweepEngine,
    SweepJournal,
    WorkerSupervisor,
    derive_cell_seeds,
)
from repro.parallel.engine import execute_cell_payload
from repro.service import ServiceClient, run_inprocess
from repro.trace.synthetic import generate_trace
from repro.trace.workloads import WORKLOAD_NAMES

#: Mixes every probe prices: write-heavy (drain-window regime) and
#: write-light (free-run regime), so a change that helps one and costs
#: the other shows.
PROBE_MIXES = ("vips", "blackscholes")
PLAN_REPEATS = 5
SPAWN_REPEATS = 5
STATUS_REPEATS = 5
MIN_ROUNDTRIPS = 100
#: Cells of the grid whose keys the classify and I/O probes use: enough
#: for steady medians, few enough to keep the committed traces small.
PROBE_CELLS = 200
MIN_COVERAGE = 0.9

#: Which end-to-end metric, on which workload, each per-layer metric
#: should move.  ``bench.*`` metrics judge the trace itself and move
#: nothing.  ``test_bench.py`` keeps this in step with BENCHMARK.json.
MOVES: dict[str, list[tuple[str, str]]] = {
    "trace.generate_ms": [("cells_per_s", "des_grid"),
                          ("first_row_p50_ms", "service_openloop")],
    "core.pack_batch_ms": [("cells_per_s", "zoo_fastpath")],
    "experiments.price_ms": [("cells_per_s", "zoo_fastpath")],
    "sim.run_ms": [("cells_per_s", "des_grid"),
                   ("first_row_p50_ms", "service_openloop")],
    "sim.events_per_cell": [("cells_per_s", "des_grid")],
    "sim.events_per_s": [("cells_per_s", "des_grid"),
                         ("job_done_p50_ms", "service_openloop")],
    "sim.events_per_s.vips": [("cells_per_s", "des_grid")],
    "sim.events_per_s.blackscholes": [("cells_per_s", "des_grid")],
    "fastpath.classify_us": [("cells_per_s", "warm_resume")],
    "fastpath.price_ms": [("cells_per_s", "zoo_fastpath")],
    "fastpath.model_ms": [("cells_per_s", "zoo_fastpath")],
    "fastpath.model_ms.vips": [("cells_per_s", "zoo_fastpath")],
    "fastpath.model_ms.blackscholes": [("cells_per_s", "zoo_fastpath")],
    "fastpath.lane_share": [("cells_per_s", "zoo_fastpath")],
    "parallel.engine.plan_ms": [("cells_per_s", "warm_resume"),
                                ("first_row_p50_ms", "warm_resume")],
    "parallel.supervisor.spawn_ms": [("setup_s", "des_grid"),
                                     ("first_row_p50_ms", "des_grid"),
                                     ("first_row_p50_ms", "service_openloop")],
    "parallel.supervisor.roundtrip_us": [("cells_per_s", "zoo_fastpath")],
    "parallel.supervisor.payload_bytes": [("cells_per_s", "zoo_fastpath")],
    "parallel.resultcache.get_us": [("cells_per_s", "warm_resume")],
    "parallel.resultcache.put_us": [("cells_per_s", "zoo_fastpath")],
    "parallel.resultcache.entry_bytes": [("cells_per_s", "zoo_fastpath")],
    "parallel.journal.append_us": [("cells_per_s", "warm_resume"),
                                   ("job_done_p50_ms", "service_openloop")],
    "parallel.journal.load_ms": [("cells_per_s", "warm_resume")],
    "parallel.journal.bytes_per_cell": [("cells_per_s", "warm_resume")],
    "service.submit_ack_ms": [("first_row_p50_ms", "service_openloop")],
    "service.status_rtt_ms": [("first_row_p50_ms", "service_openloop")],
    "service.unique_cell_share": [("job_done_p50_ms", "service_openloop")],
    "bench.trace_coverage": [],
}


# ----------------------------------------------------------------------
# Spans.
# ----------------------------------------------------------------------
class _Span:
    def __init__(self, rec: "SpanRecorder", name: str, cell: str, tid: str):
        self.rec, self.name, self.cell, self.tid = rec, name, cell, tid
        self.child_ns = 0.0

    def __enter__(self) -> "_Span":
        stack = self.rec.stacks.setdefault(self.tid, [])
        self.parent = stack[-1].name if stack else ""
        self.root = stack[0].name if stack else self.name
        stack.append(self)
        self.t0 = self.rec.tracer.clock.now_ns()
        return self

    def __exit__(self, *exc) -> None:
        dur = self.rec.tracer.clock.now_ns() - self.t0
        stack = self.rec.stacks[self.tid]
        stack.pop()
        if stack:
            stack[-1].child_ns += dur
        self.rec.close(self, dur)


class SpanRecorder:
    """Spans of the traced run, kept in memory until the run ends.

    Each span carries the cell (or job) it worked for and the name of
    its parent span.  Threads record on their own lane (``tid``).  A
    span's layer is its name without the last component.
    """

    def __init__(self) -> None:
        self.tracer = Tracer(capacity=1 << 20, clock=WallClock())
        self.stacks: dict[str, list[_Span]] = {}
        self.seconds: dict[str, list[tuple[str, float]]] = defaultdict(list)
        #: Self time by (lane, root span, layer).
        self.self_ns: dict[tuple[str, str, str], float] = defaultdict(float)
        self._lock = threading.Lock()

    def span(self, name: str, cell: str = "", *, tid: str = "main") -> _Span:
        return _Span(self, name, cell, tid)

    def close(self, span: _Span, dur_ns: float) -> None:
        layer = span.name.rsplit(".", 1)[0]
        with self._lock:
            self.tracer.complete(
                span.name, ts_ns=span.t0, dur_ns=dur_ns, pid="bench",
                tid=span.tid, cat=layer,
                args={"cell": span.cell, "parent": span.parent},
            )
            self.seconds[span.name].append((span.cell, dur_ns / 1e9))
            self.self_ns[(span.tid, span.root, layer)] += dur_ns - span.child_ns

    def durations(self, name: str, cell_prefix: str = "") -> list[float]:
        return [s for cell, s in self.seconds[name] if cell.startswith(cell_prefix)]

    def coverage(self) -> float:
        """Share of the main lane's ``bench.run`` spent inside the layers."""
        root = sum(self.durations("bench.run")) * 1e9
        inside = sum(
            ns for (tid, top, layer), ns in self.self_ns.items()
            if tid == "main" and top == "bench.run" and layer != "bench"
        )
        return inside / root


# ----------------------------------------------------------------------
# Probes.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Probe:
    """The inputs one workload feeds the layers."""

    schemes: tuple[str, ...]
    requests: int
    fastpath: str
    root_seed: int
    seeds: int | tuple[int, ...] | None = None


def probe_for(workload: str, seed: int) -> Probe:
    first_cycle = (derive_cell_seeds(seed, 1)[0],)
    return {
        "des_grid": Probe(wl.FIG_SCHEMES, wl.DES_GRID.requests, "off",
                          DEFAULT_SEED, first_cycle),
        "zoo_fastpath": Probe(wl.ZOO_SCHEMES, wl.ZOO_FASTPATH.requests, "auto",
                              DEFAULT_SEED, first_cycle),
        "service_openloop": Probe(wl.SERVICE_SCHEMES, wl.SERVICE_REQUESTS,
                                  "off", seed),
        "warm_resume": Probe(wl.FIG_SCHEMES, wl.WARM_REQUESTS, "force", seed,
                             wl.WARM_SEEDS),
    }[workload]


class LayerProbe:
    def __init__(self, rec: SpanRecorder, work: Path, probe: Probe,
                 out: wl.Outcome) -> None:
        self.rec, self.work, self.probe, self.out = rec, work, probe, out
        self.values: dict[str, float] = {}
        self.events: dict[str, int] = {}       # "mix/scheme" -> DES events

    def run(self) -> None:
        self.plan()
        self.cells()
        self.io()
        self.supervisor()

    # -- parallel.engine + fastpath.classify ------------------------------
    def plan(self) -> None:
        p, span = self.probe, self.rec.span
        engine = SweepEngine(
            requests_per_core=p.requests, root_seed=p.root_seed,
            cache=ResultCache(self.work / "plan-cache"), fastpath=p.fastpath,
        )
        for _ in range(PLAN_REPEATS):
            with span("parallel.engine.plan"):
                planned = engine.plan(p.schemes, WORKLOAD_NAMES, seeds=p.seeds)
        self.planned, self.config = planned, engine.base_config
        for pc in planned[:PROBE_CELLS]:
            with span("fastpath.classify", _cell(pc)):
                classify(self.config, pc.cell.scheme)
        self.values["parallel.engine.plan_ms"] = 1e3 * median(
            self.rec.durations("parallel.engine.plan"))
        self.values["fastpath.classify_us"] = 1e6 * median(
            self.rec.durations("fastpath.classify"))
        self.values["fastpath.lane_share"] = sum(
            pc.lane == "fastpath" for pc in planned) / len(planned)
        self.values["parallel.supervisor.payload_bytes"] = float(np.mean(
            [len(pickle.dumps(pc.payload)) for pc in planned]))

    # -- trace, core, experiments, sim, fastpath ---------------------------
    def cells(self) -> None:
        span, config = self.rec.span, self.config
        for mix in PROBE_MIXES:
            seed = next(pc.cell.seed for pc in self.planned
                        if pc.cell.workload == mix)
            with span("trace.generate", mix):
                trace = generate_trace(
                    mix, self.probe.requests, num_cores=config.cpu.num_cores,
                    seed=seed,
                )
            with span("core.pack_batch", mix):
                pack_batch(
                    trace.write_counts[..., 0].astype(np.int64),
                    trace.write_counts[..., 1].astype(np.int64),
                    K=config.K, L=config.L,
                    power_budget=config.bank_power_budget, allow_split=True,
                )
            for scheme in self.probe.schemes:
                cell = f"{mix}/{scheme}"
                with span("experiments.price", cell):
                    table = precompute_write_service(trace, scheme, config)
                with span("sim.run", cell):
                    res = run_fullsystem(trace, scheme, config, table=table)
                self.events[cell] = int(res.events)
                if classify(config, scheme).inside:
                    with span("fastpath.price", cell):
                        service, _, _ = price_write_service(trace, scheme, config)
                    with span("fastpath.model", cell):
                        model_cell(trace, service, config)
                self.out.attempted += 1
        v, d = self.values, self.rec.durations
        v["trace.generate_ms"] = 1e3 * float(np.mean(d("trace.generate")))
        v["core.pack_batch_ms"] = 1e3 * float(np.mean(d("core.pack_batch")))
        v["experiments.price_ms"] = 1e3 * float(np.mean(d("experiments.price")))
        v["sim.run_ms"] = 1e3 * float(np.mean(d("sim.run")))
        v["sim.events_per_cell"] = float(np.mean(list(self.events.values())))
        v["sim.events_per_s"] = self._events_per_s("")
        v["fastpath.price_ms"] = 1e3 * float(np.mean(d("fastpath.price")))
        v["fastpath.model_ms"] = 1e3 * float(np.mean(d("fastpath.model")))
        for mix in PROBE_MIXES:
            v[f"sim.events_per_s.{mix}"] = self._events_per_s(mix + "/")
            v[f"fastpath.model_ms.{mix}"] = 1e3 * float(
                np.mean(d("fastpath.model", mix + "/")))

    def _events_per_s(self, prefix: str) -> float:
        events = sum(n for cell, n in self.events.items()
                     if cell.startswith(prefix))
        return events / sum(self.rec.durations("sim.run", prefix))

    # -- parallel.resultcache + parallel.journal ---------------------------
    def rows(self) -> list[dict]:
        """Rows of the first probe mix's cells, as the engine's workers
        compute them."""
        first = self.planned[0].cell.seed
        rows = []
        for pc in self.planned:
            if pc.cell.workload != PROBE_MIXES[0] or pc.cell.seed != first:
                continue
            with self.rec.span("parallel.engine.execute_cell", _cell(pc)):
                _, row = execute_cell_payload(pc.payload)
            if isinstance(row, CellError):
                self.out.check("execute_cell", [row.format()])
            else:
                rows.append(dataclasses.asdict(row))
            self.out.attempted += 1
        return rows

    def io(self) -> None:
        span, rows = self.rec.span, self.rows()
        if not rows:
            return
        pairs = [(pc, rows[i % len(rows)])
                 for i, pc in enumerate(self.planned[:PROBE_CELLS])]
        cache = ResultCache(self.work / "io-cache")
        for pc, row in pairs:
            with span("parallel.resultcache.put", _cell(pc)):
                cache.put(pc.cache_key, row, meta=_meta(pc, cache.salt))
        for pc, row in pairs:
            with span("parallel.resultcache.get", _cell(pc)):
                got = cache.get(pc.cache_key)
            if got != row:
                self.out.check("cache", [f"{_cell(pc)}: read back a different row"])
        path = self.work / "io-journal.jsonl"
        journal = SweepJournal(path)
        for pc, row in pairs:
            with span("parallel.journal.append", _cell(pc)):
                journal.append(pc.journal_key, row, meta=_meta(pc, cache.salt))
        for _ in range(PLAN_REPEATS):
            with span("parallel.journal.load"):
                loaded = SweepJournal(path).load()
        if loaded != {pc.journal_key: row for pc, row in pairs}:
            self.out.check("journal", ["load() returned different rows"])
        self.out.attempted += 3 * len(pairs)
        v, d = self.values, self.rec.durations
        v["parallel.resultcache.put_us"] = 1e6 * median(d("parallel.resultcache.put"))
        v["parallel.resultcache.get_us"] = 1e6 * median(d("parallel.resultcache.get"))
        v["parallel.resultcache.entry_bytes"] = float(np.mean(
            [p.stat().st_size for p in cache.entries()]))
        v["parallel.journal.append_us"] = 1e6 * median(d("parallel.journal.append"))
        v["parallel.journal.load_ms"] = 1e3 * median(d("parallel.journal.load"))
        v["parallel.journal.bytes_per_cell"] = path.stat().st_size / len(pairs)

    # -- parallel.supervisor -----------------------------------------------
    def supervisor(self) -> None:
        span = self.rec.span
        for _ in range(SPAWN_REPEATS):
            sup = WorkerSupervisor(len, workers=2)
            with span("parallel.supervisor.spawn"):
                # Any payload but None, the workers' shutdown sentinel.
                reports = list(sup.run([(0, "a"), (1, "b")]))
            counts = sup.counts()
            if (len(reports) != 2 or any(r.failure for r in reports)
                    or counts["worker_deaths"] or counts["serial_tasks"]):
                self.out.check("supervisor", [f"no-op spawn probe: {counts}"])
        payloads = [pc.payload for pc in self.planned]
        payloads *= -(-MIN_ROUNDTRIPS // len(payloads))
        arrivals = []
        with span("parallel.supervisor.roundtrip"):
            for report in WorkerSupervisor(len, workers=1).run(
                enumerate(payloads)
            ):
                arrivals.append(time.perf_counter())
        if len(arrivals) != len(payloads):
            self.out.check("supervisor", ["round-trip probe lost tasks"])
        self.values["parallel.supervisor.spawn_ms"] = 1e3 * median(
            self.rec.durations("parallel.supervisor.spawn"))
        self.values["parallel.supervisor.roundtrip_us"] = (
            1e6 * (arrivals[-1] - arrivals[0]) / (len(arrivals) - 1))

    # -- service (every workload but service_openloop) ---------------------
    def service_job(self) -> None:
        """Start a server, run one single-cell job through it, stop it."""
        span, p = self.rec.span, self.probe
        mix, scheme = PROBE_MIXES[0], p.schemes[0]
        cell = f"{mix}/{scheme}"
        seed = next(pc.cell.seed for pc in self.planned
                    if pc.cell.workload == mix)
        grid = {"schemes": [scheme], "workloads": [mix],
                "requests_per_core": p.requests, "seed": seed}
        with span("service.start"):
            server, _ = wl.start_server(self.work / "probe-server")
        try:
            client = ServiceClient(server.endpoint)
            with span("service.submit", cell):
                job = client.submit(grid)["job"]
            with span("service.wait", cell):
                final = client.wait(job)
            for _ in range(STATUS_REPEATS):
                with span("service.status", cell):
                    client.status(job)
            counters = client.status()["counters"]
        finally:
            with span("service.stop"):
                server.stop()
        self.out.attempted += 1
        expected = run_inprocess(grid, cache=False)["rows"]
        self.out.check("service probe",
                       wl.row_problems(expected, final.get("rows", [])))
        self.service_values(counters, 1)

    def service_values(self, counters: dict, requested_cells: int) -> None:
        d = self.rec.durations
        self.values["service.submit_ack_ms"] = 1e3 * median(d("service.submit"))
        self.values["service.status_rtt_ms"] = 1e3 * median(d("service.status"))
        self.values["service.unique_cell_share"] = (
            counters.get("cells_executed", 0) / requested_cells)


def _cell(pc) -> str:
    c = pc.cell
    return f"{c.workload}/{c.scheme}/{c.seed}"


def _meta(pc, salt: str) -> dict:
    c = pc.cell
    return {"scheme": c.scheme, "workload": c.workload, "seed": c.seed,
            "variant": c.variant, "lane": pc.lane, "salt": salt}


# ----------------------------------------------------------------------
# The traced run.
# ----------------------------------------------------------------------
def traced_run(workload: str, work: Path, seed: int, seconds: float,
               trace_file: Path) -> tuple[wl.Outcome, dict[str, float]]:
    rec = SpanRecorder()
    out = wl.Outcome()
    probe = LayerProbe(rec, work, probe_for(workload, seed), out)
    if workload == "service_openloop":
        with rec.span("bench.openloop", workload):
            with rec.span("service.start"):
                server, _ = wl.start_server(work / "server")
            try:
                counters = wl.drive_service(server, seed, seconds, out,
                                            spans=rec)
            finally:
                with rec.span("service.stop"):
                    server.stop()
        requested = out.attempted * wl.SERVICE_CELLS_PER_JOB
    with rec.span("bench.run", workload):
        probe.run()
        if workload != "service_openloop":
            probe.service_job()
    if workload == "service_openloop":
        probe.service_values(counters, requested)
    values = probe.values
    values["bench.trace_coverage"] = rec.coverage()
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    write_chrome_trace(rec.tracer, trace_file)
    try:
        validate_chrome_trace_file(trace_file)
    except ValueError as exc:
        out.check("trace", [str(exc)])
    if rec.tracer.dropped:
        out.check("trace", [f"{rec.tracer.dropped} spans dropped"])
    if values["bench.trace_coverage"] < MIN_COVERAGE:
        out.check("trace", [
            f"spans cover {values['bench.trace_coverage']:.3f} of the run "
            f"(< {MIN_COVERAGE})"])
    out.context["spans"] = rec.tracer.recorded
    return out, values
