"""Sweep-engine scaling: serial vs. process pool, cold vs. warm cache.

Three contracts from ISSUE 4, in one bench:

* ``workers=4`` rows are byte-identical to serial (always asserted);
* a cache-warm re-run replays every cell with **zero DES invocations**
  and identical rows (always asserted);
* 4 workers give a >= 2x wall-clock speedup on the 4-workload x
  5-scheme grid — asserted only on hosts with >= 4 cores (single-core
  CI runners physically cannot show it; the measured ratio is still
  reported in the emitted table).

Since ISSUE 7 the pool is the supervised one (docs/RESILIENCE.md), so
the bench also pins the zero-fault contract: a clean sweep takes zero
retries/timeouts/worker-deaths/serial-fallbacks, and journaling every
cell for a resume stays in the same wall-clock class as running bare.
"""

from __future__ import annotations

import dataclasses
import json
import os

from _bench_utils import emit

from repro.analysis.report import format_table
from repro.experiments.table import SCHEMES
from repro.parallel import ResultCache, SweepEngine, SweepJournal

WORKLOADS = ("dedup", "vips", "canneal", "ferret")
REQUESTS = 800


def _rows_bytes(result) -> list[str]:
    return [json.dumps(dataclasses.asdict(r), sort_keys=True) for r in result.rows]


def _assert_zero_fault(result, label: str) -> None:
    s = result.stats
    counters = {
        "retries": s.retries,
        "timeouts": s.timeouts,
        "worker_deaths": s.worker_deaths,
        "replacements": s.replacements,
        "serial_cells": s.serial_cells,
    }
    assert not any(counters.values()), (
        f"{label}: zero-fault sweep tripped the supervisor: {counters}"
    )


def test_sweep_scaling(tmp_path):
    grid = (SCHEMES, WORKLOADS)

    serial = SweepEngine(
        requests_per_core=REQUESTS, workers=1, cache=False
    ).run(*grid)
    serial.raise_errors()

    parallel = SweepEngine(
        requests_per_core=REQUESTS, workers=4, cache=False
    ).run(*grid)
    parallel.raise_errors()
    assert _rows_bytes(parallel) == _rows_bytes(serial), (
        "workers=4 must be bit-identical to serial"
    )
    _assert_zero_fault(parallel, "pool (workers=4)")

    journaled = SweepEngine(
        requests_per_core=REQUESTS, workers=4, cache=False,
        journal=SweepJournal(tmp_path / "journal.jsonl"),
    ).run(*grid)
    journaled.raise_errors()
    _assert_zero_fault(journaled, "journaled pool")
    assert _rows_bytes(journaled) == _rows_bytes(serial), (
        "journaling must not change the rows"
    )

    store = tmp_path / "store"
    cold = SweepEngine(
        requests_per_core=REQUESTS, workers=4, cache=ResultCache(store)
    ).run(*grid)
    cold.raise_errors()
    warm = SweepEngine(
        requests_per_core=REQUESTS, workers=4, cache=ResultCache(store)
    ).run(*grid)
    warm.raise_errors()
    assert warm.stats.executed == 0, "warm re-run must not invoke the DES"
    assert warm.stats.cache_hits == warm.stats.cells
    assert _rows_bytes(warm) == _rows_bytes(serial)

    cells = serial.stats.cells
    speedup = serial.stats.wall_s / parallel.stats.wall_s
    journal_speedup = serial.stats.wall_s / journaled.stats.wall_s
    warm_speedup = serial.stats.wall_s / warm.stats.wall_s
    rows = [
        ["serial (workers=1)", cells, serial.stats.wall_s,
         serial.stats.wall_s / cells, 1.0],
        ["pool (workers=4)", cells, parallel.stats.wall_s,
         parallel.stats.wall_s / cells, speedup],
        ["journaled pool", cells, journaled.stats.wall_s,
         journaled.stats.wall_s / cells, journal_speedup],
        ["warm cache", cells, warm.stats.wall_s,
         warm.stats.wall_s / cells, warm_speedup],
    ]
    table = format_table(
        ["mode", "cells", "wall s", "s/cell", "speedup"],
        rows,
        title=(
            f"Sweep scaling — {len(WORKLOADS)} workloads x {len(SCHEMES)} "
            f"schemes, {REQUESTS} req/core ({os.cpu_count()} host cores)"
        ),
    )
    emit("sweep_scaling", table)

    assert warm_speedup > 10.0, "cache replay should be orders faster than DES"
    if (os.cpu_count() or 1) >= 4:
        assert speedup >= 2.0, (
            f"expected >= 2x at 4 workers on a >= 4-core host, got {speedup:.2f}x"
        )
