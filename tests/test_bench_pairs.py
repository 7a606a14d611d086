"""The per-pair summary that ``tools/bench_pairs.py`` prints after
``bench/compare.py``'s table, on two hand-written record files."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
END_TO_END = [
    {"name": "cells_per_s", "better": "higher"},
    {"name": "first_row_p50_ms", "better": "lower"},
    {"name": "fastpath_err_pct", "better": "lower"},
]


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(path: Path, runs: list[tuple]) -> Path:
    """``runs``: (workload, seed, traced, {metric: value})."""
    lines = [
        json.dumps({
            "workload": workload, "seed": seed, "trace": traced,
            "metrics": {k: {"value": v, "unit": "x"} for k, v in m.items()},
        })
        for workload, seed, traced, m in runs
    ]
    path.write_text("\n".join(lines) + "\n\n")
    return path


def test_ratios_and_wins_are_matched_by_seed(tmp_path, bench_pairs):
    base = _write(tmp_path / "base.jsonl", [
        ("des_grid", 1, False, {"cells_per_s": 20.0, "first_row_p50_ms": 80.0,
                                "fastpath_err_pct": 0.0}),
        ("des_grid", 2, False, {"cells_per_s": 25.0, "first_row_p50_ms": 60.0,
                                "fastpath_err_pct": 0.0}),
        ("des_grid", 3, False, {"cells_per_s": 10.0, "first_row_p50_ms": 50.0,
                                "fastpath_err_pct": 0.0}),
        # Seen on one side only, and a traced run: neither pairs up.
        ("des_grid", 4, False, {"cells_per_s": 1.0}),
        ("des_grid", 1, True, {"cells_per_s": 1.0}),
        ("warm_resume", 1, False, {"cells_per_s": 100.0}),
    ])
    # Written in another seed order than the base.
    head = _write(tmp_path / "head.jsonl", [
        ("des_grid", 3, False, {"cells_per_s": 12.0, "first_row_p50_ms": 50.0,
                                "fastpath_err_pct": 0.0}),
        ("des_grid", 1, False, {"cells_per_s": 22.0, "first_row_p50_ms": 60.0,
                                "fastpath_err_pct": 0.0}),
        ("des_grid", 2, False, {"cells_per_s": 24.0, "first_row_p50_ms": 66.0,
                                "fastpath_err_pct": 0.0}),
        ("des_grid", 1, True, {"cells_per_s": 1000.0}),
        ("warm_resume", 1, False, {"cells_per_s": 90.0}),
    ])
    rows = {
        (r["metric"], r["workload"]): r
        for r in bench_pairs.pair_summary(base, head, END_TO_END)
    }
    assert set(rows) == {
        ("cells_per_s", "des_grid"), ("cells_per_s", "warm_resume"),
        ("first_row_p50_ms", "des_grid"), ("fastpath_err_pct", "des_grid"),
    }
    # Ratios 1.1, 0.96, 1.2: median 1.1; higher is better, so 2 wins.
    cells = rows[("cells_per_s", "des_grid")]
    assert (cells["ratio"], cells["won"], cells["pairs"]) == (
        pytest.approx(1.1), 2, 3
    )
    # Ratios 0.75, 1.1, 1.0: lower is better, the tie counts for no one.
    first = rows[("first_row_p50_ms", "des_grid")]
    assert (first["ratio"], first["won"], first["pairs"]) == (
        pytest.approx(1.0), 1, 3
    )
    assert rows[("cells_per_s", "warm_resume")]["won"] == 0
    # A base of 0 has no ratio; every pair is a tie.
    zero = rows[("fastpath_err_pct", "des_grid")]
    assert (zero["ratio"], zero["won"], zero["pairs"]) == (None, 0, 3)


def test_summary_prints_one_line_per_row(tmp_path, bench_pairs, capsys):
    run = {"cells_per_s": 20.0}
    base = _write(tmp_path / "a.jsonl", [("des_grid", 7, False, run)])
    head = _write(tmp_path / "b.jsonl", [
        ("des_grid", 7, False, {"cells_per_s": 25.0})
    ])
    bench_pairs.print_pair_summary(
        bench_pairs.pair_summary(base, head, END_TO_END)
    )
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[1].split() == ["cells_per_s", "des_grid", "1.2500", "1", "of", "1"]
