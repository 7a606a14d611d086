"""Chaos suite: the supervised sweep survives kills, hangs, and torn logs.

The load-bearing guarantees (ISSUE 7):

* a worker SIGKILLed mid-cell costs a retry, never a lost cell or a
  hung grid — fastpath recheck cells included;
* a cell that blows its deadline is killed, retried, and — if it never
  stops hanging — quarantined as a structured ``CellError`` with
  ``attempts > 1``, while every other cell completes;
* a sweep killed mid-run resumes from its journal re-executing zero
  journaled cells, byte-identical to an uninterrupted run;
* a journal whose last line was torn by the crash loads cleanly
  (corrupt line counted, valid prefix kept);
* with zero injected faults the supervised engine is byte-identical to
  serial and all supervisor counters stay zero.

Fault injection is driven by the ``REPRO_CHAOS_*`` env gates in
``repro.parallel.engine._chaos_inject`` — deterministic, and dead code
unless the env vars are set.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.parallel import (
    CellError,
    ResultCache,
    RetryPolicy,
    SweepCellError,
    SweepEngine,
    SweepJournal,
    WorkerSupervisor,
    retry_jitter,
)

SCHEMES = ("dcw", "tetris")
WORKLOADS = ("dedup", "vips")
REQUESTS = 200

FAST_RETRY = RetryPolicy(
    max_retries=2, backoff_base_s=0.01, backoff_cap_s=0.05,
    poll_interval_s=0.02,
)


def row_bytes(rows) -> list[str]:
    return [json.dumps(dataclasses.asdict(r), sort_keys=True) for r in rows]


@pytest.fixture()
def chaos_env(monkeypatch):
    """Guarantee the chaos gates never leak between tests."""
    monkeypatch.delenv("REPRO_CHAOS_KILL_ONCE", raising=False)
    monkeypatch.delenv("REPRO_CHAOS_HANG", raising=False)
    return monkeypatch


# ----------------------------------------------------------------------
# Supervisor unit behavior (no DES, cheap task functions).
# ----------------------------------------------------------------------
def _double(payload):
    return payload * 2


def _raise_value_error(payload):
    raise ValueError(f"boom {payload}")


def test_supervisor_runs_all_tasks_and_counts_nothing():
    sup = WorkerSupervisor(_double, workers=2, policy=FAST_RETRY)
    reports = list(sup.run((i, i) for i in range(8)))
    assert sorted(r.task_id for r in reports) == list(range(8))
    assert all(r.failure is None and r.value == r.task_id * 2 for r in reports)
    assert all(r.attempts == 1 for r in reports)
    counts = sup.counts()
    assert counts["dispatched"] == 8
    for key in ("retries", "timeouts", "worker_deaths", "serial_tasks"):
        assert counts[key] == 0


def test_supervisor_quarantines_persistent_exceptions():
    sup = WorkerSupervisor(
        _raise_value_error, workers=2,
        policy=RetryPolicy(max_retries=1, backoff_base_s=0.01),
    )
    reports = list(sup.run([(0, "x")]))
    assert len(reports) == 1
    r = reports[0]
    assert r.failure is not None
    assert r.failure.error_type == "ValueError"
    assert r.attempts == 2          # first try + one retry
    assert r.last_signal == "exception"
    assert sup.counts()["quarantined"] == 1


def _sleep_then_double(payload):
    value, sleep_s = payload
    time.sleep(sleep_s)
    return value * 2


def _worker_pids() -> set[int]:
    return {proc.pid for proc in multiprocessing.active_children()}


def test_runs_on_one_supervisor_reuse_workers_and_count_per_run():
    with WorkerSupervisor(_double, workers=2, policy=FAST_RETRY) as sup:
        first = list(sup.run((i, i) for i in range(6)))
        pids = _worker_pids()
        assert sup.counts()["dispatched"] == 6
        second = list(sup.run((i, i) for i in range(4)))
        assert _worker_pids() == pids and len(pids) == 2
        assert sup.counts()["dispatched"] == 4
    assert not multiprocessing.active_children()
    for reports in (first, second):
        assert all(r.value == r.task_id * 2 for r in reports)
        assert all(r.attempts == 1 and not r.serial for r in reports)


def test_degradation_is_scoped_to_one_run():
    policy = RetryPolicy(max_retries=1, max_replacements=0,
                         backoff_base_s=0.01, poll_interval_s=0.02)
    with WorkerSupervisor(_sleep_then_double, workers=1, policy=policy) as sup:
        # The first attempt blows its deadline; with no replacement
        # budget the retry drains serially in-process (no deadline).
        [hung] = sup.run([(0, (1, 0.3))], deadline_for=lambda _: 0.1)
        assert sup.degraded and hung.serial and hung.value == 2
        assert sup.counts()["serial_tasks"] == 1
        clean = list(sup.run((i, (i, 0.0)) for i in range(3)))
        assert not sup.degraded
        assert not any(r.serial for r in clean)
        assert sup.counts()["serial_tasks"] == 0
        assert sup.counts()["timeouts"] == 0


def test_worker_killed_while_idle_is_replaced_without_charging_a_task():
    with WorkerSupervisor(_double, workers=2, policy=FAST_RETRY) as sup:
        list(sup.run((i, i) for i in range(2)))
        victim = multiprocessing.active_children()[0]
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(10)
        reports = list(sup.run((i, i) for i in range(4)))
        assert victim.pid not in _worker_pids()
        assert len(_worker_pids()) == 2
        counts = sup.counts()
    assert sorted(r.value for r in reports) == [0, 2, 4, 6]
    assert all(r.attempts == 1 and r.failure is None for r in reports)
    assert counts["worker_deaths"] == 1
    assert counts["retries"] == 0 and counts["dispatched"] == 4


def test_retry_jitter_is_deterministic_and_bounded():
    values = [retry_jitter(7, task, attempt)
              for task in range(20) for attempt in range(3)]
    assert values == [retry_jitter(7, task, attempt)
                      for task in range(20) for attempt in range(3)]
    assert all(0.0 <= v < 1.0 for v in values)
    # Different coordinates must not collapse onto one value.
    assert len(set(values)) > 50


def test_backoff_grows_and_caps():
    policy = RetryPolicy(backoff_base_s=0.1, backoff_cap_s=0.4, jitter=0.0)
    delays = [policy.backoff_s(0, a) for a in (1, 2, 3, 4, 5)]
    assert delays == [0.1, 0.2, 0.4, 0.4, 0.4]


# ----------------------------------------------------------------------
# Chaos: SIGKILL mid-cell.
# ----------------------------------------------------------------------
def test_sigkilled_worker_is_retried_and_grid_completes(chaos_env, tmp_path):
    flag = tmp_path / "kill-once"
    flag.touch()
    chaos_env.setenv("REPRO_CHAOS_KILL_ONCE", f"{flag}:dedup:tetris")
    eng = SweepEngine(
        requests_per_core=REQUESTS, workers=2, cache=False, retry=FAST_RETRY
    )
    res = eng.run(SCHEMES, WORKLOADS)
    assert res.stats.errors == 0
    assert len(res.rows) == len(SCHEMES) * len(WORKLOADS)
    assert res.stats.worker_deaths >= 1
    assert res.stats.retries >= 1
    assert not flag.exists()        # the kill consumed its flag

    # The post-fault grid is byte-identical to a clean serial run.
    clean = SweepEngine(requests_per_core=REQUESTS, workers=1, cache=False)
    assert row_bytes(res.rows) == row_bytes(clean.run(SCHEMES, WORKLOADS).rows)


#: Prices dedup x tetris analytically into a fresh cache, then re-runs it
#: under ``auto`` with every fastpath cell rechecked while the kill gate
#: is armed: the grid cell is a cache hit, so only the recheck's DES twin
#: executes — and must be the one the gate kills.
_KILL_RECHECK_SCRIPT = """
import json, os, sys
from repro.parallel import ResultCache, RetryPolicy, SweepEngine

cache_dir, flag = sys.argv[1:3]
grid = (("tetris",), ("dedup",))
SweepEngine(
    requests_per_core=200, cache=ResultCache(cache_dir), fastpath="force",
    recheck_fraction=0.0,
).run(*grid).raise_errors()
os.environ["REPRO_CHAOS_KILL_ONCE"] = f"{flag}:dedup:tetris"
res = SweepEngine(
    requests_per_core=200, cache=ResultCache(cache_dir), fastpath="auto",
    recheck_fraction=1.0, workers=2,
    retry=RetryPolicy(backoff_base_s=0.01, poll_interval_s=0.02),
).run(*grid)
res.raise_errors()
print(json.dumps(res.certificate["rechecks"]))
"""


def test_recheck_cell_that_kills_its_worker_does_not_kill_the_sweep(
    chaos_env, tmp_path
):
    # A subprocess, because a recheck executed in the sweep's own process
    # takes the kill itself (exit -9) and would take pytest with it.
    flag = tmp_path / "kill-once"
    flag.touch()
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _KILL_RECHECK_SCRIPT,
         str(tmp_path / "store"), str(flag)],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    [record] = json.loads(proc.stdout)
    assert (record["workload"], record["scheme"]) == ("dedup", "tetris")
    assert not flag.exists()        # the kill consumed its flag


# ----------------------------------------------------------------------
# Chaos: deadline trip on a hung cell.
# ----------------------------------------------------------------------
def test_hung_cell_is_quarantined_with_attempts_gt_1(chaos_env):
    chaos_env.setenv("REPRO_CHAOS_HANG", "vips:tetris:60")
    eng = SweepEngine(
        requests_per_core=REQUESTS, workers=2, cache=False,
        cell_deadline_s=0.5,
        retry=RetryPolicy(max_retries=1, backoff_base_s=0.01,
                          poll_interval_s=0.02),
    )
    res = eng.run(SCHEMES, WORKLOADS)
    errors = res.errors
    assert len(errors) == 1
    err = errors[0]
    assert isinstance(err, CellError)
    assert (err.workload, err.scheme) == ("vips", "tetris")
    assert err.error_type == "CellTimeout"
    assert err.attempts == 2
    assert err.last_signal == "timeout"
    assert res.stats.timeouts == 2
    # Every other cell still completed.
    assert len(res.rows) == len(SCHEMES) * len(WORKLOADS) - 1
    assert "attempts=2" in err.format()


def test_lone_cell_of_a_multi_worker_engine_gets_a_deadline(chaos_env):
    # A one-cell run at workers=2 used to execute inline, unsupervised.
    chaos_env.setenv("REPRO_CHAOS_HANG", "swaptions:dcw:5")
    eng = SweepEngine(
        requests_per_core=REQUESTS, workers=2, cache=False,
        cell_deadline_s=0.5,
        retry=RetryPolicy(max_retries=1, backoff_base_s=0.01,
                          poll_interval_s=0.02),
    )
    started = time.monotonic()
    [err] = eng.run(("dcw",), ("swaptions",)).errors
    assert time.monotonic() - started < 4.0
    assert err.error_type == "CellTimeout"
    assert err.attempts == 2
    assert err.last_signal == "timeout"


@pytest.mark.parametrize("caller", ["engine", "service"])
def test_persistently_raising_cell_is_tagged_by_both_callers(caller):
    from repro.service.scheduler import CellWork, Scheduler

    policy = RetryPolicy(
        max_retries=2, backoff_base_s=0.01, poll_interval_s=0.02
    )
    # The scheme is unregistered: every attempt raises inside the cell.
    schemes = ("dcw", "no_such_scheme")
    eng = SweepEngine(
        requests_per_core=REQUESTS, workers=2, cache=False, retry=policy
    )
    if caller == "engine":
        errors = eng.run(schemes, ("dedup",)).errors
    else:
        sched = Scheduler(cache=None, workers=2, retry=policy)
        batch = [
            CellWork(planned=pc, tenant="t")
            for pc in eng.plan(schemes, ("dedup",))
        ]
        errors = [
            CellError(**outcome)
            for _, kind, outcome in sched._run_batch(batch)
            if kind == "error"
        ]
    [err] = errors
    assert err.scheme == "no_such_scheme"
    assert err.attempts == policy.max_retries + 1
    assert err.last_signal == "exception"


def test_raise_errors_is_one_line_per_cell_with_tracebacks_attr(chaos_env):
    chaos_env.setenv("REPRO_CHAOS_HANG", "vips:tetris:60")
    eng = SweepEngine(
        requests_per_core=REQUESTS, workers=2, cache=False,
        cell_deadline_s=0.5,
        retry=RetryPolicy(max_retries=0, poll_interval_s=0.02),
    )
    res = eng.run(SCHEMES, WORKLOADS)
    with pytest.raises(SweepCellError) as excinfo:
        res.raise_errors()
    exc = excinfo.value
    assert "vips x tetris" in str(exc)
    assert "CellTimeout" in str(exc)
    assert "Traceback" not in str(exc)           # summaries, not spam
    assert len(exc.tracebacks) == len(exc.errors) == 1


# ----------------------------------------------------------------------
# Chaos: kill the sweep, then resume from the journal.
# ----------------------------------------------------------------------
def test_resume_reexecutes_zero_journaled_cells(tmp_path):
    journal_path = tmp_path / "sweep.jsonl"
    # "Crash" after a partial grid: run only half the workloads.
    eng = SweepEngine(
        requests_per_core=REQUESTS, workers=2, cache=False,
        journal=journal_path,
    )
    partial = eng.run(SCHEMES, WORKLOADS[:1])
    assert partial.stats.errors == 0
    assert len(SweepJournal(journal_path).load()) == len(SCHEMES)

    resumed = SweepEngine(
        requests_per_core=REQUESTS, workers=2, cache=False,
        journal=journal_path,
    ).run(SCHEMES, WORKLOADS, resume=True)
    assert resumed.stats.resumed == len(SCHEMES)
    assert resumed.stats.executed == len(SCHEMES) * (len(WORKLOADS) - 1)
    assert all(
        o.resumed for o in resumed.outcomes if o.cell.workload == WORKLOADS[0]
    )

    uninterrupted = SweepEngine(
        requests_per_core=REQUESTS, workers=1, cache=False
    ).run(SCHEMES, WORKLOADS)
    assert row_bytes(resumed.rows) == row_bytes(uninterrupted.rows)


def test_resume_requires_a_journal():
    eng = SweepEngine(requests_per_core=REQUESTS, workers=1, cache=False)
    with pytest.raises(ValueError, match="journal"):
        eng.run(SCHEMES, WORKLOADS[:1], resume=True)


def test_resume_tolerates_a_truncated_last_line(tmp_path):
    journal_path = tmp_path / "sweep.jsonl"
    eng = SweepEngine(
        requests_per_core=REQUESTS, workers=1, cache=False,
        journal=journal_path,
    )
    eng.run(SCHEMES, WORKLOADS[:1])
    # Poison the journal the way a crash mid-append would: tear the
    # final record in half.
    text = journal_path.read_text()
    lines = text.splitlines(keepends=True)
    journal_path.write_text("".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])

    journal = SweepJournal(journal_path)
    rows = journal.load()
    assert journal.corrupt_lines == 1
    assert len(rows) == len(SCHEMES) - 1

    resumed = SweepEngine(
        requests_per_core=REQUESTS, workers=1, cache=False,
        journal=journal_path,
    ).run(SCHEMES, WORKLOADS[:1], resume=True)
    assert resumed.stats.resumed == len(SCHEMES) - 1
    assert resumed.stats.executed == 1       # only the torn cell re-ran
    assert resumed.stats.errors == 0
    clean = SweepEngine(requests_per_core=REQUESTS, workers=1, cache=False)
    assert row_bytes(resumed.rows) == row_bytes(
        clean.run(SCHEMES, WORKLOADS[:1]).rows
    )


# ----------------------------------------------------------------------
# Journal mechanics.
# ----------------------------------------------------------------------
def test_journal_roundtrip_dedup_and_torn_lines(tmp_path):
    journal = SweepJournal(tmp_path / "j.jsonl", fsync=False)
    assert journal.append("k1", {"a": 1})
    assert journal.append("k2", {"b": 2}, meta={"scheme": "tetris"})
    assert not journal.append("k1", {"a": 999})   # duplicate: skipped
    assert journal.skipped_duplicates == 1
    assert len(journal) == 2 and "k1" in journal

    with open(journal.path, "a", encoding="utf-8") as fh:
        fh.write('{"torn...\n')
        fh.write("not json at all\n")
    fresh = SweepJournal(journal.path)
    rows = fresh.load()
    assert rows == {"k1": {"a": 1}, "k2": {"b": 2}}
    assert fresh.corrupt_lines == 2


def test_journal_load_on_missing_file_is_empty(tmp_path):
    journal = SweepJournal(tmp_path / "nope" / "j.jsonl")
    assert journal.load() == {}
    assert journal.corrupt_lines == 0


# ----------------------------------------------------------------------
# Cache integrity: quarantine + verify + gc.
# ----------------------------------------------------------------------
def test_corrupt_entry_is_quarantined_and_verify_reports_it(tmp_path):
    cache = ResultCache(tmp_path)
    key = cache.cell_key(config_json="{}", trace_key="t", scheme="s")
    cache.put(key, {"x": 1}, meta={"salt": cache.salt})
    assert cache.get(key) == {"x": 1}

    # Flip a payload byte without updating the digest: bit rot.
    path = cache._path(key)
    entry = json.loads(path.read_text())
    entry["row"]["x"] = 2
    path.write_text(json.dumps(entry))

    assert cache.get(key) is None
    assert cache.stats.corrupt == 1
    assert not path.exists()                     # moved, not left rotting
    assert len(cache.quarantined()) == 1

    report = cache.verify()
    assert report == {
        "root": str(tmp_path), "checked": 0, "ok": 0, "corrupt": 0,
        "stale_salt": 0, "quarantined": 1,
    }
    gc = cache.gc()
    assert gc["removed_quarantined"] == 1
    assert cache.quarantined() == []


def test_verify_quarantines_torn_and_stale_entries(tmp_path):
    cache = ResultCache(tmp_path)
    k_ok = cache.cell_key(config_json="{}", trace_key="ok", scheme="s")
    cache.put(k_ok, {"x": 1}, meta={"salt": cache.salt})
    k_stale = cache.cell_key(config_json="{}", trace_key="stale", scheme="s")
    cache.put(k_stale, {"y": 2}, meta={"salt": "other-code-version"})
    k_torn = cache.cell_key(config_json="{}", trace_key="torn", scheme="s")
    cache.put(k_torn, {"z": 3}, meta={"salt": cache.salt})
    torn_path = cache._path(k_torn)
    torn_path.write_text(torn_path.read_text()[: 20])

    report = cache.verify()
    assert (report["checked"], report["ok"]) == (3, 2)
    assert report["corrupt"] == 1
    assert report["stale_salt"] == 1

    gc = cache.gc()
    assert gc["removed_stale"] == 1
    assert gc["removed_quarantined"] == 1
    assert cache.get(k_ok) == {"x": 1}           # the good entry survives


def test_cache_get_missing_entry_is_plain_miss_not_corrupt(tmp_path):
    cache = ResultCache(tmp_path)
    assert cache.get("0" * 64) is None
    assert cache.stats.misses == 1
    assert cache.stats.corrupt == 0
