"""Tests of the benchmark's own code: synthetic inputs, no full runs.

Run from the repository root with ``pytest bench/ -q``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

import harness

harness.scrub_environment()

import compare  # noqa: E402
import layers  # noqa: E402
import workloads as wl  # noqa: E402
from repro.experiments.runner import ExperimentResult  # noqa: E402
from repro.obs.tracer import ManualClock  # noqa: E402
from repro.parallel import SweepEngine, SweepResult, SweepStats  # noqa: E402

SPEC = harness.load_spec()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
E2E = {m["name"] for m in SPEC["end_to_end"]}
WORKLOADS = {w["name"] for w in SPEC["workloads"]}


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
def test_spec_keys_and_sizes():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert WORKLOADS == set(wl.WORKLOADS)


def test_names_units_and_whys():
    names = [w["name"] for w in SPEC["workloads"]]
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        names.append(m["name"])
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher"), m
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(names) == len(set(names))
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]


def test_bounds():
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 <= m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_every_per_layer_metric_names_what_it_moves():
    assert set(layers.MOVES) == {m["name"] for m in SPEC["per_layer"]}
    for name, targets in layers.MOVES.items():
        assert bool(targets) != name.startswith("bench."), name
        for metric, workload in targets:
            assert metric in E2E, (name, metric)
            assert workload in WORKLOADS, (name, workload)


def test_end_to_end_reports_every_metric():
    out = wl.Outcome(setup_s=[1.0, 2.0, 3.0], peak_rss_mb=50.0)
    for job, done in (("a", 9.0), ("b", 11.0), ("c", 30.0)):
        out.add_job(job, 5, 0.0, done / 2e3, done / 1e3)
    out.rate_of_jobs()
    values = wl.end_to_end(out, {"paper_gap_pct": 40.0, "fastpath_err_pct": 0.5})
    assert set(values) == E2E
    assert values["setup_s"] == 2.0
    assert values["job_done_p50_ms"] == pytest.approx(11.0)
    assert values["first_row_p50_ms"] == pytest.approx(5.5)
    assert values["cells_per_s"] == pytest.approx(15 / 0.050)
    assert all(v > 0 for v in values.values())


def test_a_job_run_again_counts_with_its_median_times():
    out = wl.Outcome()
    out.add_job("vips/7", 5, 10.0, 10.2, 10.9)
    out.add_job("vips/7", 5, 20.0, 20.1, 21.0)
    out.add_job("vips/7", 5, 30.0, 30.3, 30.5)
    assert wl.per_job(out.first_row_ms) == [pytest.approx(200.0)]
    assert wl.per_job(out.job_done_ms) == [pytest.approx(900.0)]
    out.rate_of_jobs()
    assert (out.cells, out.wall_s) == (5, pytest.approx(0.9))


def test_job_times_are_scaled_to_the_reference_speed():
    out = wl.Outcome()
    out.add_job("vips/7", 5, 10.0, 10.1, 10.4, scale=0.5)
    assert wl.per_job(out.first_row_ms) == [pytest.approx(50.0)]
    assert wl.per_job(out.job_done_ms) == [pytest.approx(200.0)]


def test_speed_gauge_reads_the_host_and_stops_its_helpers():
    with harness.SpeedGauge() as gauge:
        assert gauge.scale() > 0
        procs = gauge.procs
    assert len(gauge.readings) == 1
    assert all(p.poll() is not None for p in procs)


# ----------------------------------------------------------------------
# Output checks feed ``failed``.
# ----------------------------------------------------------------------
def test_tampered_row_is_a_failure():
    rows = [{"workload": "vips", "scheme": "dcw", "ipc": 1.25, "events": 3}]
    assert wl.row_problems(rows, [dict(r) for r in rows]) == []
    assert wl.row_problems(rows, [dict(rows[0], ipc=1.2500001)])
    assert wl.row_problems(rows, [])


def _sweep(cells=0, executed=0, certificate_cells=()):
    return SweepResult(
        outcomes=[],
        stats=SweepStats(cells=cells, executed=executed),
        certificate={"cells": list(certificate_cells)},
    )


def test_cell_leaving_the_fastpath_for_another_reason_is_a_failure():
    palp = {"workload": "vips", "scheme": "palp", "lane": "des",
            "reasons": ["unpriced-scheme"]}
    assert wl.zoo_job_problems(_sweep(certificate_cells=[palp])) == []
    faulty = dict(palp, scheme="tetris", reasons=["faults-enabled"])
    assert wl.zoo_job_problems(_sweep(certificate_cells=[faulty]))


def test_unexpected_execution_count_is_a_failure():
    assert wl.sweep_problems(_sweep(cells=4, executed=4), executed=4) == []
    assert wl.sweep_problems(_sweep(cells=4, executed=1), executed=0)


def _row(workload, scheme, runtime, ipc, read):
    return ExperimentResult(workload, scheme, read, 1.0, ipc, runtime,
                            1.0, 1.0, 0, 1)


def test_injected_divergence_is_a_failure():
    des = [_row("vips", "dcw", 100.0, 1.0, 100.0),
           _row("vips", "tetris", 54.0, 2.0, 35.0)]
    close = [_row(r.workload, r.scheme, r.runtime_ns * 1.01, r.ipc,
                  r.read_latency_ns) for r in des]
    err, problems = wl.fastpath_error(des, close)
    assert problems == [] and err == pytest.approx(100.0 * 0.02 / 8)
    diverged = list(close)
    diverged[1] = _row("vips", "tetris", 54.0, 2.2, 35.0)       # IPC +10 %
    _, problems = wl.fastpath_error(des, diverged)
    assert len(problems) == 1 and "ipc" in problems[0]


def test_paper_gap_against_the_papers_values():
    rows = []
    for w in wl.HEAVY_MIXES:
        rows += [_row(w, "dcw", 100.0, 1.0, 100.0),
                 _row(w, "tetris", 54.0, 2.0, 35.0)]
    gap, problems = wl.paper_gap(rows)
    assert gap == pytest.approx(0.0) and problems == []
    rows = [_row(r.workload, r.scheme, r.runtime_ns,
                 r.ipc if r.scheme == "dcw" else 1.0, r.read_latency_ns)
            for r in rows]
    gap, problems = wl.paper_gap(rows)
    assert gap == pytest.approx(100.0 * 0.5 / 3) and len(problems) == 1
    _, problems = wl.paper_gap([r for r in rows if r.workload != "vips"])
    assert problems


def test_outcome_counts_each_failed_check():
    out = wl.Outcome()
    out.check("round 0", [])
    out.check("round 1", ["a", "b"])
    assert out.problems == ["round 1: a", "round 1: b"]


# ----------------------------------------------------------------------
# Workload inputs.
# ----------------------------------------------------------------------
def test_sweep_jobs_follow_the_engines_grid_order():
    jobs = wl.sweep_jobs(9, 24)
    assert jobs == wl.sweep_jobs(9, 24)
    assert [m for m, _ in jobs[:8]] == list(wl.WORKLOAD_NAMES)
    seeds = tuple(dict.fromkeys(s for _, s in jobs))
    assert len(seeds) == 3 and jobs[:20] == wl.sweep_jobs(9, 20)
    # warm_resume reads job j's rows as the j-th slice of the fill's rows.
    grid = SweepEngine(requests_per_core=200, cache=False).grid(
        wl.FIG_SCHEMES, wl.WORKLOAD_NAMES, seeds=seeds)
    n = len(wl.FIG_SCHEMES)
    for j, (mix, seed) in enumerate(jobs):
        cells = grid[j * n:(j + 1) * n]
        assert [c.scheme for c in cells] == list(wl.FIG_SCHEMES)
        assert {(c.workload, c.seed) for c in cells} == {(mix, seed)}


def test_service_jobs_pair_tenants_on_one_grid():
    jobs = wl.service_jobs(5, 16)
    assert len(jobs) == 32
    for p in range(16):
        (due_a, lead, grid_a), (due_b, follow, grid_b) = jobs[2 * p: 2 * p + 2]
        assert due_a == due_b == p / wl.SERVICE_PAIR_RATE
        assert grid_a == grid_b and grid_a["seed"] == 5 + p
        assert {lead, follow} == set(wl.SERVICE_TENANTS)
        assert lead == wl.SERVICE_TENANTS[p % 2]
    assert jobs == wl.service_jobs(5, 16)


# ----------------------------------------------------------------------
# Trace coverage.
# ----------------------------------------------------------------------
def _recorder():
    rec = layers.SpanRecorder()
    clock = ManualClock()
    rec.tracer.bind_clock(clock)
    return rec, clock


def test_layer_time_inside_a_wrapper_counts_as_coverage():
    rec, clock = _recorder()
    with rec.span("bench.run"):
        with rec.span("bench.wrapper"):
            with rec.span("sim.run"):
                clock.advance(95.0)
        clock.advance(5.0)
    assert rec.coverage() == pytest.approx(0.95)


def test_wrapper_span_alone_is_not_coverage():
    rec, clock = _recorder()
    with rec.span("bench.run"):
        with rec.span("service.submit"):
            clock.advance(10.0)
        with rec.span("bench.openloop"):
            clock.advance(90.0)
    assert rec.coverage() == pytest.approx(0.1)
    assert rec.coverage() < layers.MIN_COVERAGE


def test_spans_outside_the_probe_root_do_not_count():
    rec, clock = _recorder()
    with rec.span("bench.openloop"):
        with rec.span("service.start"):
            clock.advance(50.0)
    with rec.span("bench.run"):
        with rec.span("parallel.engine.plan"):
            clock.advance(1.0)
        clock.advance(9.0)
    assert rec.coverage() == pytest.approx(0.1)


def test_hermetic_environment_drops_repro_switches(monkeypatch):
    monkeypatch.setenv("REPRO_NO_FASTPATH", "1")
    env = harness.hermetic_env()
    assert not any(k.startswith("REPRO_") for k in env)
    assert env["PYTHONPATH"] == str(harness.SRC)


def test_run_length_is_fixed_by_the_spec():
    proc = subprocess.run(
        [sys.executable, str(harness.ROOT / "bench" / "run.py"),
         "--workload", "des_grid", "--seconds", str(SPEC["run_seconds"] + 1)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""


def test_refuses_to_run_without_a_source_tree(tmp_path):
    shutil.copy(harness.SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(harness.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "baseline"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "des_grid"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# ----------------------------------------------------------------------
# compare.py
# ----------------------------------------------------------------------
BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2]


def test_compare_agreeing_runs():
    assert compare.verdict(BASE, [v + 0.3 for v in BASE], 0.1, "lower") == "ok"
    assert compare.verdict([4.0] * 3, [4.0] * 3, 0.0, "lower") == "ok"


def test_compare_regressed():
    assert compare.verdict(BASE, [v * 1.2 for v in BASE], 0.1, "lower") == "regressed"
    assert compare.verdict(BASE, [v * 0.8 for v in BASE], 0.1, "higher") == "regressed"
    assert compare.verdict([4.0] * 3, [4.0000001] * 3, 0.0, "lower") == "regressed"


def test_compare_unresolved():
    noisy = [60.0, 140.0, 100.0, 75.0, 130.0, 102.0]
    assert compare.verdict(BASE, noisy, 0.1, "lower") == "unresolved"
    assert compare.verdict(noisy, BASE, 0.1, "higher") == "unresolved"


def test_compare_judges_set_up_time_by_its_median_alone():
    noisy = [60.0, 140.0, 100.0, 75.0, 130.0, 100.0]
    assert compare.verdict(noisy, noisy, 0.1, "lower", judge_spread=False) == "ok"
    slower = [v * 1.3 for v in noisy]
    assert compare.verdict(noisy, slower, 0.1, "lower",
                           judge_spread=False) == "regressed"


def test_compare_improved_beats_a_wide_spread():
    faster = [50.0, 70.0, 60.0, 55.0, 65.0, 52.0]
    assert compare.verdict(BASE, faster, 0.1, "lower") == "improved"
    assert compare.verdict(BASE, faster, 0.1, "higher") == "regressed"


def _write_runs(path, values):
    with open(path, "w") as fh:
        for v in values:
            fh.write(json.dumps({
                "workload": "des_grid", "trace": 0,
                "metrics": {"cells_per_s": {"value": v, "unit": "cells/s"}},
            }) + "\n")


def test_compare_exit_codes(tmp_path, capsys):
    a, b, c = tmp_path / "a.jsonl", tmp_path / "b.jsonl", tmp_path / "c.jsonl"
    _write_runs(a, BASE)
    _write_runs(b, [v + 0.1 for v in BASE])
    _write_runs(c, [v * 0.5 for v in BASE])
    assert compare.main([str(a), str(b)]) == 0
    assert compare.main([str(a), str(c)]) == 1
    assert "regressed" in capsys.readouterr().out

