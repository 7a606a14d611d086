"""Fastpath lane contracts: analytic speedup + vectorized kernel gates.

Two ISSUE 9 acceptance gates, measured and enforced in one bench:

* **Analytic lane >= 10x.**  The full Fig 11-14 grid priced by the
  oracle-certified fastpath must be at least 10x faster than the same
  grid through the discrete-event simulator, with every cell inside the
  envelope and zero differential-recheck divergences.  The two phases
  share one throwaway result store so the recheck's DES references are
  cache hits — the fastpath wall clock is the analytic lane's own cost.
* **Vectorized read stage >= 3x.**  The numpy ``read_stage`` kernel on
  a trace-sized payload matrix must beat the pure-Python
  ``read_stage_reference`` on the same units by at least 3x, while
  staying bit-identical to it.

Emits ``BENCH_fastpath.json`` at the repo root (the machine-readable
sibling of ``BENCH_sweep.json``) plus the usual table under
``benchmarks/out/``.
"""

from __future__ import annotations

import json
import tempfile
import time
from pathlib import Path

import numpy as np

from _bench_utils import SEED, emit

from repro.core.read_stage import read_stage, read_stage_reference
from repro.parallel import ResultCache, SweepEngine, code_salt
from repro.schemes import COMPARED_SCHEMES
from repro.trace.workloads import WORKLOAD_NAMES

WORKLOADS = tuple(WORKLOAD_NAMES)
SCHEMES = ("dcw",) + tuple(COMPARED_SCHEMES)
REQUESTS = 4000
MIN_SWEEP_SPEEDUP = 10.0
MIN_KERNEL_SPEEDUP = 3.0

# Trace-sized payload matrix for the kernel micro-bench: a 4000-request
# workload writes ~4-8k lines of 8 data units each.
KERNEL_WRITES = 8192
KERNEL_UNITS = 8

OUT_PATH = Path(__file__).parent.parent / "BENCH_fastpath.json"


def _measure_sweep() -> dict:
    with tempfile.TemporaryDirectory(prefix="bench-fastpath-") as tmp:
        store = Path(tmp) / "store"
        des = SweepEngine(
            requests_per_core=REQUESTS, root_seed=SEED, workers=1,
            cache=ResultCache(store), fastpath="off",
        ).run(SCHEMES, WORKLOADS)
        des.raise_errors()
        fast = SweepEngine(
            requests_per_core=REQUESTS, root_seed=SEED, workers=1,
            cache=ResultCache(store), fastpath="auto",
            certificate_path=Path(tmp) / "certificate.json",
        ).run(SCHEMES, WORKLOADS)
        fast.raise_errors()
    return {
        "cells": des.stats.cells,
        "des_wall_s": round(des.stats.wall_s, 4),
        "fastpath_wall_s": round(fast.stats.wall_s, 4),
        "fastpath_cells": fast.stats.fastpath_cells,
        "des_cells": fast.stats.des_cells,
        "recheck_samples": fast.stats.recheck_samples,
        "recheck_divergences": fast.stats.recheck_divergences,
        "speedup": round(des.stats.wall_s / fast.stats.wall_s, 2),
    }


def _measure_kernel() -> dict:
    rng = np.random.default_rng(SEED)
    shape = (KERNEL_WRITES, KERNEL_UNITS)
    old = rng.integers(0, 1 << 64, size=shape, dtype=np.uint64)
    new = rng.integers(0, 1 << 64, size=shape, dtype=np.uint64)
    flip = rng.integers(0, 2, size=shape).astype(bool)

    t0 = time.perf_counter()
    vec = read_stage(old, flip, new)
    vec_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    ref = read_stage_reference(old.ravel(), flip.ravel(), new.ravel())
    scalar_s = time.perf_counter() - t0

    for field in ("flip", "physical", "n_set", "n_reset"):
        got = getattr(vec, field).ravel()
        assert np.array_equal(got, getattr(ref, field)), (
            f"vectorized read stage diverged from scalar reference: {field}"
        )
    return {
        "writes": KERNEL_WRITES,
        "units_per_write": KERNEL_UNITS,
        "vectorized_s": round(vec_s, 6),
        "scalar_s": round(scalar_s, 6),
        "speedup": round(scalar_s / vec_s, 1),
    }


def test_fastpath_contracts():
    sweep = _measure_sweep()
    kernel = _measure_kernel()

    doc = {
        "grid": {
            "workloads": list(WORKLOADS),
            "schemes": list(SCHEMES),
            "requests_per_core": REQUESTS,
            "seed": SEED,
        },
        "code_version": code_salt()[:16],
        "sweep": sweep,
        "read_stage": kernel,
    }
    with open(OUT_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")

    lines = [
        "fastpath lane contracts",
        "=======================",
        f"grid: {len(WORKLOADS)} workloads x {len(SCHEMES)} schemes "
        f"@ {REQUESTS} req/core ({sweep['cells']} cells)",
        f"DES-only wall:    {sweep['des_wall_s']:.2f}s",
        f"fastpath wall:    {sweep['fastpath_wall_s']:.2f}s "
        f"({sweep['fastpath_cells']} analytic / {sweep['des_cells']} DES, "
        f"{sweep['recheck_samples']} rechecked, "
        f"{sweep['recheck_divergences']} divergences)",
        f"sweep speedup:    {sweep['speedup']:.1f}x "
        f"(contract: >= {MIN_SWEEP_SPEEDUP:.0f}x)",
        "",
        f"read_stage {KERNEL_WRITES}x{KERNEL_UNITS}: "
        f"vector {kernel['vectorized_s'] * 1e3:.1f}ms, "
        f"scalar {kernel['scalar_s'] * 1e3:.1f}ms -> "
        f"{kernel['speedup']:.0f}x (contract: >= {MIN_KERNEL_SPEEDUP:.0f}x, "
        f"bit-identical)",
        f"wrote {OUT_PATH.name}",
    ]
    emit("bench_fastpath", "\n".join(lines))

    assert sweep["fastpath_cells"] == sweep["cells"], (
        "auto mode left cells outside the envelope at the paper's "
        "operating point"
    )
    assert sweep["recheck_divergences"] == 0, (
        "differential recheck diverged from the DES"
    )
    assert sweep["speedup"] >= MIN_SWEEP_SPEEDUP, (
        f"fastpath speedup {sweep['speedup']}x is below the "
        f"{MIN_SWEEP_SPEEDUP:.0f}x contract"
    )
    assert kernel["speedup"] >= MIN_KERNEL_SPEEDUP, (
        f"vectorized read stage {kernel['speedup']}x is below the "
        f"{MIN_KERNEL_SPEEDUP:.0f}x contract"
    )


def main() -> int:
    test_fastpath_contracts()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
