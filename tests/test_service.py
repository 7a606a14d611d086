"""Sweep service: tenancy, fairness, dedup, drain, and crash resume.

The load-bearing guarantees (ISSUE 8):

* two tenants submitting overlapping grids execute each unique cell
  exactly once, and every job's rows are byte-identical to a serial
  ``SweepEngine.run()`` of the same grid;
* deficit round robin bounds inter-tenant unfairness by the quantum —
  a big grid cannot starve a small one;
* admission control rejects queue overflow with a structured
  ``admission-rejected`` error carrying ``retry_after_s``, without
  affecting other tenants;
* ``drain`` finishes in-flight jobs and answers new submits with a
  structured ``draining`` + ``retry_after_s`` rejection;
* a server killed mid-job resumes from its job store and the result
  cache, re-executing zero completed cells.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import signal
import time
from functools import partial

import pytest

from repro.parallel import ResultCache, RetryPolicy, SweepEngine
from repro.parallel.engine import CellError, PlannedCell, SweepCell
from repro.service import (
    GridSpec,
    ProtocolError,
    ServiceClient,
    SweepService,
    job_id_for,
)
from repro.service.jobs import Job, JobStore
from repro.service.protocol import (
    E_ADMISSION,
    E_DRAINING,
    decode_frame,
    encode_frame,
    request_frame,
)
from repro.service.scheduler import CellWork, Scheduler

REQUESTS = 60

# Overlap: the tetris x vips cell appears in both grids.
GRID_A = {
    "schemes": ["dcw", "tetris"],
    "workloads": ["dedup", "vips"],
    "requests_per_core": REQUESTS,
}
GRID_B = {
    "schemes": ["tetris"],
    "workloads": ["vips", "ferret"],
    "requests_per_core": REQUESTS,
}
GRID_SMALL = {
    "schemes": ["dcw"],
    "workloads": ["swaptions"],
    "requests_per_core": REQUESTS,
}
# Disjoint from GRID_A: a follow-up job that must execute on the pool.
GRID_C = {
    "schemes": ["dcw", "tetris"],
    "workloads": ["ferret"],
    "requests_per_core": REQUESTS,
}
#: One retry, half a second per attempt: hung cells fail fast.
HANG_POLICY = RetryPolicy(
    max_retries=1, deadline_base_s=0.5, deadline_per_request_s=0.0
)


def serial_row_bytes(grid: dict, config=None) -> list[str]:
    """Canonical row serialization of a serial engine run of ``grid``
    (under ``config``, built by the caller, for a grid that carries one)."""
    import dataclasses

    spec = GridSpec.from_dict(grid)
    res = SweepEngine(
        config=config,
        requests_per_core=spec.requests_per_core,
        root_seed=spec.seed,
        workers=1,
        cache=False,
    ).run(spec.schemes, spec.workloads)
    res.raise_errors()
    return [json.dumps(dataclasses.asdict(r), sort_keys=True) for r in res.rows]


def row_bytes(rows: list[dict]) -> list[str]:
    return [json.dumps(r, sort_keys=True) for r in rows]


async def make_service(tmp_path, **kw) -> SweepService:
    kw.setdefault("cache", ResultCache(tmp_path / "cache"))
    svc = SweepService(state_dir=tmp_path / "state", fsync=False, **kw)
    await svc.start()
    return svc


async def rpc(sock_path, frame: dict) -> dict:
    """One request frame over a fresh unix connection; one checked reply."""
    reader, writer = await asyncio.open_unix_connection(str(sock_path))
    writer.write(encode_frame(frame))
    await writer.drain()
    line = await reader.readline()
    writer.close()
    await writer.wait_closed()
    return decode_frame(line)


def submit_frame(tenant: str, grid: dict) -> dict:
    return request_frame("submit", tenant=tenant, grid=grid)


def slow_cells(monkeypatch, delay_s: float = 0.05):
    """Give the shared runner's inline cell call a floor latency
    (deterministic races)."""
    import repro.parallel.engine as engine_mod

    orig = engine_mod.execute_cell_payload

    def slow(payload):
        time.sleep(delay_s)
        return orig(payload)

    monkeypatch.setattr(engine_mod, "execute_cell_payload", slow)


# ----------------------------------------------------------------------
# Exactly-once execution + byte-identity across overlapping tenants.
# ----------------------------------------------------------------------
def test_two_tenants_overlap_exactly_once_and_byte_identical(tmp_path):
    """Through ``ServiceClient`` on a live socket: two overlapping
    tenants, then a third tenant replaying both grids from the shared
    journal/cache, then ``drain``."""
    sock = tmp_path / "s.sock"

    async def run():
        svc = await make_service(tmp_path)
        server = await svc.serve_unix(sock)
        endpoint = f"unix:{sock}"
        try:
            alice = ServiceClient(endpoint, tenant="alice")
            bob = ServiceClient(endpoint, tenant="bob")
            ja, jb = await asyncio.gather(
                asyncio.to_thread(lambda: alice.submit(GRID_A)["job"]),
                asyncio.to_thread(lambda: bob.submit(GRID_B)["job"]),
            )
            sa, sb = await asyncio.gather(
                asyncio.to_thread(alice.wait, ja),
                asyncio.to_thread(bob.wait, jb),
            )
            counters = dict(svc.scheduler.counter_values())

            # A third tenant's replay of both grids is finished at
            # submit, executes nothing, and its watch streams still end
            # in ``done``.
            replay = ServiceClient(endpoint, tenant="replay")
            for grid in (GRID_A, GRID_B):
                reply = await asyncio.to_thread(replay.submit, grid)
                assert reply["state"] == "done"
                stream = await asyncio.to_thread(
                    list, replay.watch(reply["job"])
                )
                assert stream[-1]["state"] == "done"
            status = await asyncio.to_thread(replay.status)
            assert status["counters"]["cells_executed"] == 5
            drained = await asyncio.to_thread(replay.drain)
            assert drained["ok"] and drained["draining"]
            await asyncio.wait_for(svc.drained.wait(), 30)
        finally:
            server.close()
            await server.wait_closed()
            await svc.shutdown()
        return svc, sa, sb, counters

    svc, sa, sb, counters = asyncio.run(run())
    assert sa["state"] == "done" and sb["state"] == "done"
    assert not sa["errors"] and not sb["errors"]
    # 4 + 2 cells with one overlap: exactly 5 unique executions, and the
    # shared cell was served to its second tenant by dedup or cache.
    assert counters["cells_executed"] == 5
    assert counters.get("cells_failed", 0) == 0
    assert counters.get("cells_cached", 0) + counters.get("cells_deduped", 0) == 1
    jobs = [svc.jobs[sa["job"]], svc.jobs[sb["job"]]]
    assert sum(j.executed_cells for j in jobs) == 5
    assert sum(j.cached_cells + j.deduped_cells for j in jobs) == 1
    # Every unique cell stored exactly once, and the cache is the only
    # durable row store: the state dir holds nothing but the job journal.
    assert svc.cache.stats.stores == 5
    assert sorted(p.name for p in svc.state_dir.iterdir()) == [
        "jobs.jsonl"
    ]
    # Rows byte-identical to a serial engine run of each grid.
    assert row_bytes(sa["rows"]) == serial_row_bytes(GRID_A)
    assert row_bytes(sb["rows"]) == serial_row_bytes(GRID_B)


def test_workers_gt1_supervised_batch_byte_identical(tmp_path):
    async def run():
        svc = await make_service(tmp_path, workers=2)
        try:
            reply = await svc._dispatch(submit_frame("alice", GRID_A), None)
            await asyncio.wait_for(svc.scheduler.wait_idle(), 180)
            return await svc._dispatch(
                request_frame("status", job=reply["job"]), None
            )
        finally:
            await svc.shutdown()

    status = asyncio.run(run())
    assert status["state"] == "done" and not status["errors"]
    assert row_bytes(status["rows"]) == serial_row_bytes(GRID_A)


def worker_pids() -> set[int]:
    return {proc.pid for proc in multiprocessing.active_children()}


async def run_job(svc: SweepService, grid: dict, tenant: str = "alice"):
    """Submit ``grid``, wait for the scheduler to go idle, return status."""
    reply = await svc._dispatch(submit_frame(tenant, grid), None)
    await asyncio.wait_for(svc.scheduler.wait_idle(), 120)
    return await svc._dispatch(request_frame("status", job=reply["job"]), None)


def test_workers_gt1_hung_cell_times_out_and_the_grid_finishes(
    tmp_path, monkeypatch
):
    expected = serial_row_bytes(GRID_A)    # before the hang is armed
    monkeypatch.setenv("REPRO_CHAOS_HANG", "vips:tetris:60")
    policy = RetryPolicy(
        max_retries=1, deadline_base_s=0.5, deadline_per_request_s=0.0
    )

    async def run():
        svc = await make_service(tmp_path, workers=2, retry=policy)
        try:
            reply = await svc._dispatch(submit_frame("alice", GRID_A), None)
            await asyncio.wait_for(svc.scheduler.wait_idle(), 50)
            return await svc._dispatch(
                request_frame("status", job=reply["job"]), None
            )
        finally:
            await svc.shutdown()

    status = asyncio.run(run())
    assert status["state"] == "done"
    [err] = status["errors"]
    assert (err["workload"], err["scheme"]) == ("vips", "tetris")
    assert err["error_type"] == "CellTimeout"
    assert err["attempts"] == 2
    assert err["last_signal"] == "timeout"
    hung = 3    # grid order: dedup x {dcw, tetris}, vips x {dcw, tetris}
    assert row_bytes(status["rows"]) == expected[:hung] + expected[hung + 1:]


def test_lone_cell_batch_is_supervised_with_a_deadline(tmp_path, monkeypatch):
    # A one-cell batch on a two-worker server used to run inside the
    # server process: no deadline, no isolation.
    monkeypatch.setenv("REPRO_CHAOS_HANG", "swaptions:dcw:5")

    async def run():
        svc = await make_service(tmp_path, workers=2, retry=HANG_POLICY)
        try:
            reply = await svc._dispatch(submit_frame("alice", GRID_SMALL), None)
            await asyncio.wait_for(svc.scheduler.wait_idle(), 4)
            return await svc._dispatch(
                request_frame("status", job=reply["job"]), None
            )
        finally:
            await svc.shutdown()

    status = asyncio.run(run())
    assert status["state"] == "done"
    assert not status["rows"]
    [err] = status["errors"]
    assert err["error_type"] == "CellTimeout"
    assert err["attempts"] == 2
    assert err["last_signal"] == "timeout"


# ----------------------------------------------------------------------
# The worker pool lives as long as the scheduler.
# ----------------------------------------------------------------------
def test_consecutive_jobs_run_on_the_same_warm_workers(tmp_path):
    async def run():
        svc = await make_service(tmp_path, workers=2)
        try:
            first = await run_job(svc, GRID_A)
            pids_after_first = worker_pids()
            second = await run_job(svc, GRID_C)
            pids_after_second = worker_pids()
        finally:
            await svc.shutdown()
        return first, second, pids_after_first, pids_after_second

    first, second, pids_first, pids_second = asyncio.run(run())
    assert len(pids_first) == 2
    assert pids_second == pids_first
    assert not multiprocessing.active_children()    # shutdown stopped them
    assert row_bytes(first["rows"]) == serial_row_bytes(GRID_A)
    assert row_bytes(second["rows"]) == serial_row_bytes(GRID_C)


def test_worker_killed_while_idle_is_replaced_without_charging_a_cell(
    tmp_path,
):
    async def run():
        svc = await make_service(tmp_path, workers=2)
        try:
            await run_job(svc, GRID_A)
            victim = multiprocessing.active_children()[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(10)
            second = await run_job(svc, GRID_C)
            return victim.pid, second, svc.scheduler._pool.counts()
        finally:
            await svc.shutdown()

    victim, second, counts = asyncio.run(run())
    assert victim not in worker_pids()
    assert second["state"] == "done" and not second["errors"]
    assert row_bytes(second["rows"]) == serial_row_bytes(GRID_C)
    # GRID_C's two cells are one batch: the idle death was noticed and
    # its worker replaced before dispatch, so no cell was retried.
    assert counts["worker_deaths"] == 1
    assert counts["retries"] == 0 and counts["dispatched"] == 2


def test_job_after_a_hung_cell_completes_on_the_replacement_worker(
    tmp_path, monkeypatch
):
    monkeypatch.setenv("REPRO_CHAOS_HANG", "vips:tetris:60")

    async def run():
        svc = await make_service(tmp_path, workers=2, retry=HANG_POLICY)
        try:
            hung = await run_job(svc, GRID_A)
            after = await run_job(svc, GRID_C)
            return hung, after
        finally:
            await svc.shutdown()

    hung, after = asyncio.run(run())
    [err] = hung["errors"]
    assert err["error_type"] == "CellTimeout"
    assert after["state"] == "done" and not after["errors"]
    assert row_bytes(after["rows"]) == serial_row_bytes(GRID_C)


def test_engine_and_service_cache_the_same_entry(tmp_path):
    spec = GridSpec.from_dict(GRID_SMALL)
    engine_cache = ResultCache(tmp_path / "engine-cache")
    SweepEngine(
        requests_per_core=spec.requests_per_core,
        root_seed=spec.seed,
        workers=1,
        cache=engine_cache,
    ).run(spec.schemes, spec.workloads).raise_errors()

    async def run():
        svc = await make_service(tmp_path)
        try:
            await svc._dispatch(submit_frame("alice", GRID_SMALL), None)
            await asyncio.wait_for(svc.scheduler.wait_idle(), 120)
        finally:
            await svc.shutdown()
        return svc.cache

    service_cache = asyncio.run(run())
    [engine_entry] = engine_cache.entries()
    [service_entry] = service_cache.entries()
    assert engine_entry.name == service_entry.name
    engine_record = json.loads(engine_entry.read_text())
    assert engine_record["meta"]["lane"] == "des"
    assert engine_record == json.loads(service_entry.read_text())


class TestGridConfig:
    """``GridSpec.config``: a delta over the Table II config."""

    DELTA = {"memctrl": {"write_pausing": True}, "cpu": {"max_outstanding_reads": 4}}

    def test_round_trips_and_stays_off_the_wire_when_empty(self):
        spec = GridSpec.from_dict(dict(GRID_A, config=self.DELTA))
        assert spec.to_dict()["config"] == self.DELTA
        assert GridSpec.from_dict(spec.to_dict()) == spec
        assert "config" not in GridSpec.from_dict(GRID_A).to_dict()

    def test_plans_the_cache_keys_of_the_same_config_built_directly(
        self, tmp_path
    ):
        from repro.config import CPUConfig, MemCtrlConfig, default_config

        config = default_config().replace(
            memctrl=MemCtrlConfig(write_pausing=True),
            cpu=CPUConfig(max_outstanding_reads=4),
        )
        spec = GridSpec.from_dict(dict(GRID_A, config=self.DELTA))
        cache = ResultCache(tmp_path / "cache")
        direct = SweepEngine(
            config=config, requests_per_core=REQUESTS, cache=cache
        ).plan(spec.schemes, spec.workloads)
        keys = [pc.cache_key for pc in spec.plan(cache=cache)]
        assert keys == [pc.cache_key for pc in direct]
        plain = [pc.cache_key for pc in GridSpec.from_dict(GRID_A).plan(cache=cache)]
        assert set(keys).isdisjoint(plain)

    def test_an_int_for_a_float_field_plans_the_keys_of_the_float(
        self, tmp_path
    ):
        cache = ResultCache(tmp_path / "cache")

        def keys(value):
            delta = {"memctrl": {"write_pausing": True, "pause_overhead_ns": value}}
            spec = GridSpec.from_dict(dict(GRID_A, config=delta))
            return [pc.cache_key for pc in spec.plan(cache=cache)]

        assert keys(10) == keys(10.0)

    @pytest.mark.parametrize("config", [
        {"nosuch": {"x": 1}},
        {"memctrl": {"nosuch": 1}},
        {"organization": {"subarrays_per_bank": 0}},
        {"memctrl": {"drain_order": "lifo"}},
        {"memctrl": True},
        {"power": [1]},
        {"memctrl": {"write_pausing": "yes"}},
        "pausing",
    ], ids=["section", "field", "value", "choice", "section-type",
            "power-type", "field-type", "not-object"])
    def test_rejects_a_bad_delta_as_bad_grid(self, config):
        from repro.service.protocol import E_BAD_GRID

        with pytest.raises(ProtocolError) as e:
            GridSpec.from_dict(dict(GRID_A, config=config))
        assert e.value.code == E_BAD_GRID


def test_cell_landing_between_resolve_and_attach_is_never_requeued(tmp_path):
    spec = GridSpec.from_dict(GRID_SMALL)

    async def run():
        svc = await make_service(tmp_path)
        try:
            loop = asyncio.get_running_loop()
            planned = await loop.run_in_executor(
                None, partial(spec.plan, cache=svc.cache)
            )
            # bob's submit resolves before the cell has run ...
            stale = await loop.run_in_executor(
                None, svc.scheduler.resolve_planned, planned
            )
            # ... then alice's copy of it executes and lands ...
            first = await run_job(svc, GRID_SMALL, tenant="alice")
            # ... and only then does bob's submit attach.
            late = Job(job_id="late", tenant="bob", spec=spec, planned=planned)
            svc.scheduler.attach(late, stale)
            queued = svc.scheduler.queued_cells("bob")
            inflight = dict(svc.scheduler.inflight)
            await asyncio.wait_for(svc.scheduler.wait_idle(), 120)
            return svc, stale, first, late, queued, inflight
        finally:
            await svc.shutdown()

    svc, stale, first, late, queued, inflight = asyncio.run(run())
    assert [row for _, row in stale] == [None]
    assert late.state == "done"
    assert late.cached_cells == 1 and late.executed_cells == 0
    assert queued == 0 and not inflight
    assert svc.scheduler.counter_values()["cells_executed"] == 1
    assert row_bytes(late.ordered_rows()) == row_bytes(first["rows"])


# ----------------------------------------------------------------------
# DRR fairness bound.
# ----------------------------------------------------------------------
def _queued(key: str, tenant: str) -> CellWork:
    planned = PlannedCell(
        index=0,
        cell=SweepCell("dedup", "dcw", 0),
        payload=(),
        cache_key=None,
        journal_key=key,
    )
    return CellWork(planned=planned, tenant=tenant)


def test_drr_bounds_unfairness_by_the_quantum():
    from repro.service.scheduler import TenantState

    sched = Scheduler(cache=None, workers=1, quantum=1.0)
    sched.tenants["big"] = TenantState("big")
    sched.tenants["small"] = TenantState("small")
    for i in range(8):
        sched.tenants["big"].queue.append(_queued(f"b{i}", "big"))
    for i in range(2):
        sched.tenants["small"].queue.append(_queued(f"s{i}", "small"))
    sched._active.extend(["big", "small"])

    picks = [sched._select_batch(1)[0].tenant for _ in range(10)]
    # While both tenants are backlogged, service alternates: the small
    # tenant's 2 cells are done within the first 4 selections (within
    # quantum=1 of equal share), despite an 8-cell backlog ahead of it.
    assert picks[:4].count("small") == 2
    assert picks[4:] == ["big"] * 6
    assert all(not ts.queue for ts in sched.tenants.values())


def test_drr_quantum_weights_throughput():
    from repro.service.scheduler import TenantState

    sched = Scheduler(cache=None, workers=1, quantum=0.5)
    sched.tenants["a"] = TenantState("a")
    sched.tenants["b"] = TenantState("b")
    for i in range(6):
        sched.tenants["a"].queue.append(_queued(f"a{i}", "a"))
        sched.tenants["b"].queue.append(_queued(f"b{i}", "b"))
    sched._active.extend(["a", "b"])
    picks = [sched._select_batch(1)[0].tenant for _ in range(12)]
    # Equal-quantum tenants stay within one cell of each other at every
    # prefix of the service order.
    for cut in range(1, 13):
        served = picks[:cut]
        assert abs(served.count("a") - served.count("b")) <= 1


# ----------------------------------------------------------------------
# Admission control.
# ----------------------------------------------------------------------
def test_admission_rejects_overflow_with_retry_after(tmp_path):
    async def run():
        svc = await make_service(tmp_path, max_queued_cells=2)
        try:
            with pytest.raises(ProtocolError) as excinfo:
                await svc._dispatch(submit_frame("greedy", GRID_A), None)
            # The rejected tenant left no partial state behind.
            assert not svc.jobs
            assert not svc.scheduler.inflight
            # Another tenant's small submit is unaffected.
            ok = await svc._dispatch(submit_frame("modest", GRID_SMALL), None)
            await asyncio.wait_for(svc.scheduler.wait_idle(), 120)
            return excinfo.value, ok
        finally:
            await svc.shutdown()

    exc, ok = asyncio.run(run())
    assert exc.code == E_ADMISSION
    assert isinstance(exc.retry_after_s, float) and exc.retry_after_s >= 0.0
    assert "limit 2" in exc.message
    assert ok["ok"]


def test_eta_divides_per_cell_seconds_by_workers_once(monkeypatch):
    import repro.service.scheduler as scheduler_mod
    from repro.service.scheduler import TenantState

    def two_cells_after_200ms(batch, *args, **kwargs):
        time.sleep(0.2)
        for pos, pc in enumerate(batch):
            yield pos, CellError(
                workload=pc.cell.workload, scheme=pc.cell.scheme,
                seed=pc.cell.seed, variant=pc.cell.variant,
                error_type="Stub", message="", traceback_text="",
            )

    monkeypatch.setattr(scheduler_mod, "run_cells", two_cells_after_200ms)
    sched = Scheduler(cache=None, workers=2)
    sched.tenants["t"] = TenantState("t")
    sched.tenants["t"].queue.extend([_queued("a", "t"), _queued("b", "t")])
    sched._active.append("t")
    sched.stop()                 # one batch, then run() returns

    async def run():
        await asyncio.wait_for(sched.run(), 10)

    asyncio.run(run())
    # Each cell took 0.2 s of a worker; ten more cells over two workers
    # take about 1.0 s.
    assert sched.eta_s(10) == pytest.approx(1.0, abs=0.15)


# ----------------------------------------------------------------------
# Drain: finish in-flight, reject new work with structured retry-after.
# ----------------------------------------------------------------------
def test_drain_finishes_inflight_and_rejects_new_submits(tmp_path, monkeypatch):
    slow_cells(monkeypatch)

    async def run():
        svc = await make_service(tmp_path)
        try:
            accepted = await svc._dispatch(submit_frame("alice", GRID_A), None)
            drain = await svc._dispatch(request_frame("drain"), None)
            assert drain["draining"] is True
            assert drain["jobs_pending"] == 1
            with pytest.raises(ProtocolError) as excinfo:
                await svc._dispatch(submit_frame("bob", GRID_B), None)
            await asyncio.wait_for(svc.drained.wait(), 120)
            status = await svc._dispatch(
                request_frame("status", job=accepted["job"]), None
            )
            return excinfo.value, status
        finally:
            await svc.shutdown()

    exc, status = asyncio.run(run())
    assert exc.code == E_DRAINING
    assert isinstance(exc.retry_after_s, float) and exc.retry_after_s >= 1.0
    # The in-flight job finished completely and correctly.
    assert status["state"] == "done" and not status["errors"]
    assert row_bytes(status["rows"]) == serial_row_bytes(GRID_A)


# ----------------------------------------------------------------------
# Crash resume: zero re-execution of cached cells.
# ----------------------------------------------------------------------
def test_restart_resumes_finished_job_with_zero_reexecution(tmp_path):
    async def crash_run():
        # A server that dies before the fire-and-forget "done" marker
        # lands: the job store says pending, the result cache holds all
        # completions.
        svc = await make_service(tmp_path)
        svc.store.record_done = lambda job_id: None
        try:
            reply = await svc._dispatch(submit_frame("alice", GRID_A), None)
            await asyncio.wait_for(svc.scheduler.wait_idle(), 120)
            return reply["job"]
        finally:
            await svc.shutdown()

    async def restart_run():
        svc = await make_service(tmp_path)
        try:
            await asyncio.wait_for(svc.scheduler.wait_idle(), 120)
            return svc, dict(svc.jobs)
        finally:
            await svc.shutdown()

    job_id = asyncio.run(crash_run())
    svc2, jobs = asyncio.run(restart_run())
    assert list(jobs) == [job_id]
    job = jobs[job_id]
    assert job.state == "done"
    counters = svc2.scheduler.counter_values()
    assert counters.get("cells_executed", 0) == 0  # zero re-execution
    assert counters["cells_cached"] == 4
    assert row_bytes(job.ordered_rows()) == serial_row_bytes(GRID_A)


def test_restart_resumes_partial_job_executing_only_missing_cells(tmp_path):
    resume_partial_job(tmp_path, GRID_A)


def test_restart_resumes_partial_config_job_on_the_same_cache_keys(tmp_path):
    """The journaled grid keeps its config delta: the restarted server
    re-plans the keys the first life cached, and runs the config."""
    from repro.config import CPUConfig, MemCtrlConfig, default_config

    grid = dict(GRID_A, config={
        "memctrl": {"write_pausing": True},
        "cpu": {"max_outstanding_reads": 4},
    })
    config = default_config().replace(
        memctrl=MemCtrlConfig(write_pausing=True),
        cpu=CPUConfig(max_outstanding_reads=4),
    )
    assert serial_row_bytes(grid, config) != serial_row_bytes(GRID_A)
    resume_partial_job(tmp_path, grid, config)


def resume_partial_job(tmp_path, grid: dict, config=None) -> None:
    spec_full = GridSpec.from_dict(grid)
    cache = ResultCache(tmp_path / "cache")
    state = tmp_path / "state"
    state.mkdir()

    async def resume():
        svc = SweepService(
            state_dir=state, cache=ResultCache(tmp_path / "cache"), fsync=False
        )
        await svc.start()
        try:
            await asyncio.wait_for(svc.scheduler.wait_idle(), 120)
            return svc, dict(svc.jobs)
        finally:
            await svc.shutdown()

    async def seed_half():
        # First life of the server: the dcw half of the grid completes,
        # then the process dies with the full 2x2 job accepted (its
        # "submitted" marker journaled) but never planned.
        svc = SweepService(state_dir=state, cache=cache, fsync=False)
        await svc.start()
        half = dict(grid, schemes=["dcw"])
        try:
            await svc._dispatch(submit_frame("alice", half), None)
            await asyncio.wait_for(svc.scheduler.wait_idle(), 120)
        finally:
            await svc.shutdown()
        job = Job(
            job_id=job_id_for("alice", spec_full, svc.salt),
            tenant="alice",
            spec=spec_full,
            planned=[],
        )
        JobStore(state / "jobs.jsonl", fsync=False).record_submitted(job)
        return job.job_id

    job_id = asyncio.run(seed_half())
    svc2, jobs = asyncio.run(resume())
    full_job = jobs[job_id]
    assert full_job.state == "done"
    # Only the two tetris cells were missing; the two dcw cells were
    # served from the result cache without re-execution.
    counters = svc2.scheduler.counter_values()
    assert counters["cells_executed"] == 2
    assert full_job.cached_cells == 2
    assert row_bytes(full_job.ordered_rows()) == serial_row_bytes(grid, config)


# ----------------------------------------------------------------------
# Idempotent resubmission, cancel, and watch streaming.
# ----------------------------------------------------------------------
def test_resubmitting_the_same_grid_is_idempotent(tmp_path):
    async def run():
        svc = await make_service(tmp_path)
        try:
            first = await svc._dispatch(submit_frame("alice", GRID_SMALL), None)
            await asyncio.wait_for(svc.scheduler.wait_idle(), 120)
            second = await svc._dispatch(submit_frame("alice", GRID_SMALL), None)
            return svc, first, second
        finally:
            await svc.shutdown()

    svc, first, second = asyncio.run(run())
    assert second["job"] == first["job"]
    assert second["resubmitted"] is True
    assert second["state"] == "done"
    assert svc.scheduler.counter_values()["cells_executed"] == 1


def test_cancel_withdraws_queued_cells_and_streams_terminal_event(
    tmp_path, monkeypatch
):
    slow_cells(monkeypatch)

    async def run():
        svc = await make_service(tmp_path)
        try:
            accepted = await svc._dispatch(submit_frame("alice", GRID_A), None)
            cancelled = await svc._dispatch(
                request_frame("cancel", job=accepted["job"]), None
            )
            status = await svc._dispatch(
                request_frame("status", job=accepted["job"]), None
            )
            await asyncio.wait_for(svc.scheduler.wait_idle(), 120)
            return svc, cancelled, status
        finally:
            await svc.shutdown()

    svc, cancelled, status = asyncio.run(run())
    assert cancelled["state"] == "cancelled"
    assert cancelled["cancelled_cells"] >= 1
    assert status["state"] == "cancelled"
    assert svc.scheduler.counter_values()["jobs_cancelled"] == 1
    # Cancel is terminal: a later completion of an executing cell must
    # not flip the job back.
    assert svc.jobs[cancelled["job"]].state == "cancelled"


def test_watch_streams_progress_to_done(tmp_path, monkeypatch):
    slow_cells(monkeypatch)

    async def run():
        svc = await make_service(tmp_path)
        server = await svc.serve_unix(tmp_path / "w.sock")
        try:
            accepted = await rpc(
                tmp_path / "w.sock", submit_frame("alice", GRID_C)
            )
            reader, writer = await asyncio.open_unix_connection(
                str(tmp_path / "w.sock")
            )
            writer.write(
                encode_frame(request_frame("watch", job=accepted["job"]))
            )
            await writer.drain()
            events = []
            while True:
                frame = decode_frame(await reader.readline())
                events.append(frame)
                if frame.get("state") in ("done", "cancelled"):
                    break
            writer.close()
            await writer.wait_closed()
            status = await rpc(
                tmp_path / "w.sock", request_frame("status", job=accepted["job"])
            )
            return events, status
        finally:
            server.close()
            await server.wait_closed()
            await svc.shutdown()

    events, status = asyncio.run(run())
    assert events[0]["event"] == "snapshot"
    assert events[-1]["event"] == "done"
    assert events[-1]["state"] == "done"
    dones = [e["done"] for e in events if e.get("event") != "snapshot"]
    assert dones == sorted(dones)  # progress is monotone
    assert all("counters" in e for e in events[1:])
    # Two cells: one "progress" frame, then the "done" frame, the only
    # one that reports every cell done.
    assert [(e["event"], e["state"], e["done"]) for e in events[1:]] == [
        ("progress", "running", 1), ("done", "done", 2),
    ]
    assert row_bytes(status["rows"]) == serial_row_bytes(GRID_C)


def test_status_summary_reports_tenants_and_counters(tmp_path):
    async def run():
        svc = await make_service(tmp_path)
        try:
            await svc._dispatch(submit_frame("alice", GRID_SMALL), None)
            await asyncio.wait_for(svc.scheduler.wait_idle(), 120)
            return await svc._dispatch(request_frame("status"), None)
        finally:
            await svc.shutdown()

    summary = asyncio.run(run())
    assert summary["draining"] is False
    assert summary["workers"] == 1
    assert len(summary["jobs"]) == 1
    assert summary["counters"]["jobs_done"] == 1
    assert "alice" in summary["tenants"]
