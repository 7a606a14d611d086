"""Parallel sweep engine: determinism, caching, and failure capture.

The load-bearing guarantees (ISSUE 4):

* ``workers=N`` produces byte-identical rows to ``workers=1``;
* a cache-warm re-run produces byte-identical rows with zero DES
  invocations;
* a poisoned cell surfaces as a structured error row without aborting
  the rest of the grid.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os

import pytest

from repro.experiments.runner import run_schemes_on_workloads
from repro.parallel import (
    ResultCache,
    SweepCellError,
    SweepEngine,
    cache_disabled_by_env,
    derive_cell_seeds,
    parallel_map,
)

SCHEMES = ("dcw", "tetris")
WORKLOADS = ("dedup", "vips")
REQUESTS = 250


def row_bytes(rows) -> list[str]:
    """Canonical byte-level serialization of result rows."""
    return [
        json.dumps(dataclasses.asdict(r), sort_keys=True) for r in rows
    ]


@pytest.fixture(scope="module")
def serial_rows():
    eng = SweepEngine(requests_per_core=REQUESTS, workers=1, cache=False)
    res = eng.run(SCHEMES, WORKLOADS)
    res.raise_errors()
    return res.rows


# ----------------------------------------------------------------------
# Determinism.
# ----------------------------------------------------------------------
def test_parallel_rows_byte_identical_to_serial(serial_rows):
    eng = SweepEngine(requests_per_core=REQUESTS, workers=4, cache=False)
    res = eng.run(SCHEMES, WORKLOADS)
    res.raise_errors()
    assert res.stats.workers == 4
    assert row_bytes(res.rows) == row_bytes(serial_rows)


def test_cache_warm_rerun_is_byte_identical_with_zero_des(tmp_path, serial_rows):
    cache = ResultCache(tmp_path / "store")
    cold = SweepEngine(
        requests_per_core=REQUESTS, workers=2, cache=cache
    ).run(SCHEMES, WORKLOADS)
    cold.raise_errors()
    assert cold.stats.executed == len(cold.outcomes)
    assert cold.stats.cache_stores == len(cold.outcomes)

    warm = SweepEngine(
        requests_per_core=REQUESTS, workers=2, cache=ResultCache(tmp_path / "store")
    ).run(SCHEMES, WORKLOADS)
    warm.raise_errors()
    assert warm.stats.executed == 0, "warm re-run must not invoke the DES"
    assert warm.stats.cache_hits == len(warm.outcomes)
    assert all(o.cached for o in warm.outcomes)
    assert row_bytes(warm.rows) == row_bytes(serial_rows)


def test_runner_facade_parallel_matches_serial(serial_rows):
    rows = run_schemes_on_workloads(
        SCHEMES, WORKLOADS, requests_per_core=REQUESTS, workers=2, cache=False
    )
    assert row_bytes(rows) == row_bytes(serial_rows)


def test_rows_come_back_in_grid_order(serial_rows):
    assert [(r.workload, r.scheme) for r in serial_rows] == [
        (w, s) for w in WORKLOADS for s in SCHEMES
    ]


def test_multi_seed_grid_shape_and_determinism():
    eng = SweepEngine(requests_per_core=120, workers=2, cache=False)
    a = eng.run(("dcw",), ("dedup",), seeds=3)
    b = SweepEngine(requests_per_core=120, workers=1, cache=False).run(
        ("dcw",), ("dedup",), seeds=3
    )
    assert len(a.rows) == 3
    assert row_bytes(a.rows) == row_bytes(b.rows)
    seeds = [o.cell.seed for o in a.outcomes]
    assert len(set(seeds)) == 3, "replica seeds must be distinct"


def test_derive_cell_seeds_is_pure_and_distinct():
    assert derive_cell_seeds(7, 4) == derive_cell_seeds(7, 4)
    assert len(set(derive_cell_seeds(7, 16))) == 16
    assert derive_cell_seeds(7, 4) != derive_cell_seeds(8, 4)
    with pytest.raises(ValueError):
        derive_cell_seeds(7, 0)


# ----------------------------------------------------------------------
# Failure capture.
# ----------------------------------------------------------------------
def test_poisoned_cell_becomes_error_row_and_grid_survives():
    eng = SweepEngine(requests_per_core=120, workers=2, cache=False)
    res = eng.run(("dcw", "no_such_scheme"), ("dedup",))
    assert len(res.outcomes) == 2
    ok = [o for o in res.outcomes if o.row is not None]
    bad = [o for o in res.outcomes if o.error is not None]
    assert len(ok) == 1 and ok[0].cell.scheme == "dcw"
    assert len(bad) == 1 and bad[0].cell.scheme == "no_such_scheme"
    err = bad[0].error
    assert err.error_type and err.traceback_text
    assert "no_such_scheme" in err.format()
    with pytest.raises(SweepCellError, match="no_such_scheme"):
        res.raise_errors()


def test_poisoned_cell_survives_serially_too():
    res = SweepEngine(requests_per_core=120, workers=1, cache=False).run(
        ("dcw",), ("dedup", "not_a_workload")
    )
    assert res.stats.errors == 1
    assert len(res.rows) == 1


def test_errors_are_never_cached(tmp_path):
    cache = ResultCache(tmp_path / "store")
    eng = SweepEngine(requests_per_core=120, workers=1, cache=cache)
    eng.run(("no_such_scheme",), ("dedup",))
    assert cache.entries() == []


def test_runner_facade_raises_on_cell_failure():
    with pytest.raises(SweepCellError):
        run_schemes_on_workloads(
            ("no_such_scheme",), ("dedup",), requests_per_core=120, cache=False
        )


# ----------------------------------------------------------------------
# Cache behavior.
# ----------------------------------------------------------------------
def test_cache_disabled_by_env(monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    assert cache_disabled_by_env()
    eng = SweepEngine(requests_per_core=120)
    assert eng.cache is None
    monkeypatch.delenv("REPRO_NO_CACHE")
    assert not cache_disabled_by_env()


def test_explicit_cache_instance_beats_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    cache = ResultCache(tmp_path / "store")
    eng = SweepEngine(requests_per_core=120, cache=cache)
    assert eng.cache is cache


def test_corrupt_cache_entry_is_a_miss_not_an_error(tmp_path):
    cache = ResultCache(tmp_path / "store")
    key = cache.cell_key(config_json="{}", trace_key="t", scheme="dcw")
    cache.put(key, {"x": 1})
    path = cache._path(key)
    path.write_text("{ not json", encoding="utf-8")
    assert cache.get(key) is None
    assert cache.stats.misses == 1


def test_cache_key_covers_every_input(tmp_path):
    cache = ResultCache(tmp_path / "store", salt="s1")
    base = dict(config_json="{}", trace_key="t", scheme="dcw")
    k = cache.cell_key(**base)
    assert cache.cell_key(**{**base, "scheme": "tetris"}) != k
    assert cache.cell_key(**{**base, "trace_key": "u"}) != k
    assert cache.cell_key(**{**base, "config_json": '{"a":1}'}) != k
    assert ResultCache(tmp_path / "store", salt="s2").cell_key(**base) != k
    # and the same inputs always produce the same key
    assert cache.cell_key(**base) == k


def test_cache_clear_and_report(tmp_path):
    cache = ResultCache(tmp_path / "store", salt="s1")
    for scheme in ("dcw", "dcw", "tetris"):
        key = cache.cell_key(
            config_json="{}", trace_key=f"t{cache.stats.stores}", scheme=scheme
        )
        cache.put(key, {"x": 1}, meta={"scheme": scheme, "salt": "s1"})
    report = cache.report()
    assert report["entries"] == 3
    assert report["by_scheme"] == {"dcw": 2, "tetris": 1}
    assert report["current_code_version"] == 3
    assert cache.clear() == 3
    assert cache.entries() == []


@pytest.mark.parametrize("fsync", [True, False])
def test_cache_put_fsyncs_entry_and_directory_only_when_asked(
    tmp_path, monkeypatch, fsync
):
    root = tmp_path / "store"
    cache = ResultCache(root, salt="s1", fsync=fsync)
    key = cache.cell_key(config_json="{}", trace_key="t", scheme="dcw")
    entry = cache._path(key)
    synced: list[int] = []
    real_fsync = os.fsync

    def counting_fsync(fd: int) -> None:
        synced.append(os.fstat(fd).st_ino)
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", counting_fsync)
    # The first put creates the entry's directory: the store root that
    # names it is synced too.
    cache.put(key, {"x": 1})
    if fsync:
        assert synced == [
            entry.stat().st_ino, entry.parent.stat().st_ino, root.stat().st_ino
        ]
    else:
        assert synced == []
    # Later puts sync the entry file before its rename, then its directory.
    synced.clear()
    cache.put(key, {"x": 2})
    if fsync:
        assert synced == [entry.stat().st_ino, entry.parent.stat().st_ino]
    else:
        assert synced == []
    assert cache.get(key) == {"x": 2}


# ----------------------------------------------------------------------
# parallel_map (ablation / crossover backbone).
# ----------------------------------------------------------------------
def _square(x: int) -> int:
    return x * x


def _boom(x: int) -> int:
    raise RuntimeError(f"boom {x}")


def test_parallel_map_preserves_order():
    items = list(range(20))
    assert parallel_map(_square, items, workers=1) == [x * x for x in items]
    assert parallel_map(_square, items, workers=4) == [x * x for x in items]


def test_parallel_map_propagates_errors():
    with pytest.raises(RuntimeError, match="boom"):
        parallel_map(_boom, [1, 2], workers=2)


# ----------------------------------------------------------------------
# Satellite: NaN normalization against a degenerate baseline.
# ----------------------------------------------------------------------
def test_normalized_zero_baseline_is_nan_not_zero():
    from repro.experiments.runner import ExperimentResult

    make = lambda **kw: ExperimentResult(  # noqa: E731
        workload="w", scheme="s", read_latency_ns=kw.get("read", 1.0),
        write_latency_ns=1.0, ipc=1.0, runtime_ns=1.0,
        mean_write_units=1.0, mean_write_energy=1.0,
        forwarded_reads=0, events=0,
    )
    degenerate = ExperimentResult(
        workload="w", scheme="dcw", read_latency_ns=0.0, write_latency_ns=0.0,
        ipc=0.0, runtime_ns=0.0, mean_write_units=0.0, mean_write_energy=0.0,
        forwarded_reads=0, events=0,
    )
    norm = make().normalized(degenerate)
    assert all(math.isnan(v) for v in norm.values())


def test_format_table_renders_nan_as_na():
    from repro.analysis.report import format_table

    out = format_table(["a"], [[math.nan]])
    assert "n/a" in out and "nan" not in out
