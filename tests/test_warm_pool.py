"""The sweep engine's warm cell pool: one per process, reused across runs.

Every multi-worker ``SweepEngine.run`` of a process runs on one pool of
supervised workers that stays alive between runs (``docs/RESILIENCE.md``):

* two runs, in two engines, are served by the same two worker pids;
* a changed environment forks a new pool, so the chaos gates a worker
  reads at cell time still take effect, and so does a scheme class
  defined after the fork;
* a warm worker keeps none of the parent's descriptors open, so a pipe
  the parent closes after a sweep reaches EOF at once;
* the pool does not outlive the interpreter;
* two threads running engines at once both get serial-identical rows.

``tests/conftest.py`` closes the pool after every test, so each test
starts without warm workers.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import select
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.parallel import RetryPolicy, SweepEngine
from repro.schemes import SCHEME_REGISTRY

SCHEMES = ("dcw", "tetris")
WORKLOADS = ("dedup", "vips")
REQUESTS = 200

HANG_RETRY = RetryPolicy(max_retries=1, backoff_base_s=0.01, poll_interval_s=0.02)


def row_bytes(rows) -> list[str]:
    return [json.dumps(dataclasses.asdict(r), sort_keys=True) for r in rows]


def worker_pids() -> set[int]:
    return {proc.pid for proc in multiprocessing.active_children()}


def engine(workers: int = 2, **kwargs) -> SweepEngine:
    return SweepEngine(
        requests_per_core=REQUESTS, workers=workers, cache=False, **kwargs
    )


def test_two_engines_run_on_the_same_two_workers():
    first = engine().run(SCHEMES, WORKLOADS[:1])
    pids = worker_pids()
    second = engine().run(SCHEMES, WORKLOADS[1:])
    assert len(pids) == 2 and worker_pids() == pids
    serial = engine(workers=1).run(SCHEMES, WORKLOADS)
    assert row_bytes(first.rows + second.rows) == row_bytes(serial.rows)


def test_changed_environment_forks_a_new_pool(monkeypatch):
    monkeypatch.delenv("REPRO_CHAOS_HANG", raising=False)
    eng = engine(cell_deadline_s=0.5, retry=HANG_RETRY)
    assert eng.run(SCHEMES, WORKLOADS).stats.errors == 0
    warm = worker_pids()
    assert len(warm) == 2

    # Workers forked before this line would never see the gate.
    monkeypatch.setenv("REPRO_CHAOS_HANG", "vips:tetris:60")
    res = eng.run(SCHEMES, WORKLOADS)
    assert worker_pids().isdisjoint(warm)
    [err] = res.errors
    assert (err.workload, err.scheme) == ("vips", "tetris")
    assert err.error_type == "CellTimeout"
    assert err.attempts == 2 and err.last_signal == "timeout"
    assert len(res.rows) == len(SCHEMES) * len(WORKLOADS) - 1


def test_scheme_defined_after_the_fork_reaches_a_new_pool():
    engine().run(SCHEMES, WORKLOADS[:1])
    warm = worker_pids()
    try:
        class WarmPoolDCW(SCHEME_REGISTRY["dcw"]):
            name = "warm_pool_dcw"

        res = engine().run((WarmPoolDCW.name,), WORKLOADS[:1])
        serial = engine(workers=1).run((WarmPoolDCW.name,), WORKLOADS[:1])
    finally:
        SCHEME_REGISTRY.pop("warm_pool_dcw", None)
    # Workers forked before the class would not know the scheme.
    assert res.stats.errors == 0, res.errors[0].format()
    assert worker_pids().isdisjoint(warm)
    assert row_bytes(res.rows) == row_bytes(serial.rows)


def test_warm_workers_hold_no_descriptor_of_the_parent():
    read_fd, write_fd = os.pipe()
    try:
        engine().run(SCHEMES, WORKLOADS)
        assert len(worker_pids()) == 2          # the pool is still warm
        os.close(write_fd)
        write_fd = -1
        # EOF only once no process holds the write end any more.
        readable, _, _ = select.select([read_fd], [], [], 2.0)
        assert readable, "a warm worker still holds the pipe's write end"
        assert os.read(read_fd, 1) == b""
    finally:
        os.close(read_fd)
        if write_fd >= 0:
            os.close(write_fd)


_SWEEP_AND_EXIT = """
import json, multiprocessing
from repro.parallel import SweepEngine
SweepEngine(requests_per_core=200, workers=2, cache=False).run(
    ("dcw", "tetris"), ("dedup",)
).raise_errors()
print(json.dumps([p.pid for p in multiprocessing.active_children()]))
"""


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state != "Z"


def test_warm_workers_do_not_outlive_the_interpreter():
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _SWEEP_AND_EXIT],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    pids = json.loads(proc.stdout)
    assert len(pids) == 2
    deadline = time.monotonic() + 5.0
    while any(_alive(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not [pid for pid in pids if _alive(pid)]


def test_concurrent_engines_in_two_threads_match_serial():
    grids = [(SCHEMES, WORKLOADS[:1]), (SCHEMES, WORKLOADS[1:])]
    results: list = [None, None]
    start = threading.Barrier(2)

    def sweep(i: int) -> None:
        start.wait()
        results[i] = engine().run(*grids[i])

    threads = [threading.Thread(target=sweep, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(120)
    for (schemes, workloads), res in zip(grids, results):
        assert res is not None and res.stats.errors == 0
        serial = engine(workers=1).run(schemes, workloads)
        assert row_bytes(res.rows) == row_bytes(serial.rows)
    # The thread that found the pool busy closed its private pool.
    assert len(worker_pids()) == 2
