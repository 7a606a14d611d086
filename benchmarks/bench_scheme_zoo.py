"""Scheme-zoo cross-paper grid: all registered schemes x all workloads.

The ISSUE 10 acceptance grid: every registered scheme (the paper's six,
the two extensions, and the WIRE / DATACON / PALP zoo) across the eight
PARSEC-like workloads through the SweepEngine on the ``auto`` lane —
every scheme rides the oracle-certified fastpath, priced from the
write-service table both lanes share.  Emits ``BENCH_scheme_zoo.json``
at the repo root with one normalized-vs-DCW row per (scheme, workload)
cell, and enforces the zoo's headline cross-paper guarantee on the full
grid: WIRE's mean write energy never exceeds Flip-N-Write's in any
workload column.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from _bench_utils import REQUESTS_PER_CORE, SEED, emit

from repro.analysis.metrics import geometric_mean
from repro.parallel import ResultCache, SweepEngine, code_salt
from repro.schemes import SCHEME_REGISTRY
from repro.trace.workloads import WORKLOAD_NAMES

WORKLOADS = tuple(WORKLOAD_NAMES)
SCHEMES = tuple(sorted(SCHEME_REGISTRY))
BASELINE = "dcw"

OUT_PATH = Path(__file__).parent.parent / "BENCH_scheme_zoo.json"

#: Normalized-vs-DCW row fields (ratio < 1 is better for all but ipc).
METRICS = ("runtime_ns", "read_latency_ns", "write_latency_ns", "ipc",
           "mean_write_units", "mean_write_energy")


def _run_grid():
    with tempfile.TemporaryDirectory(prefix="bench-zoo-") as tmp:
        res = SweepEngine(
            requests_per_core=REQUESTS_PER_CORE, root_seed=SEED, workers=1,
            cache=ResultCache(Path(tmp) / "store"), fastpath="auto",
            certificate_path=Path(tmp) / "certificate.json",
        ).run(SCHEMES, WORKLOADS)
        res.raise_errors()
    return res


def test_scheme_zoo_grid():
    res = _run_grid()
    cells = {(r.workload, r.scheme): r for r in res.rows}
    assert len(cells) == len(SCHEMES) * len(WORKLOADS), "grid has holes"

    rows = []
    for workload in WORKLOADS:
        base = cells[(workload, BASELINE)]
        for scheme in SCHEMES:
            r = cells[(workload, scheme)]
            norm = {}
            for m in METRICS:
                b = getattr(base, m)
                norm[m] = round(getattr(r, m) / b, 4) if b else None
            rows.append({
                "workload": workload,
                "scheme": scheme,
                "lane": "des" if r.events else "fastpath",
                **{m: getattr(r, m) for m in METRICS},
                "normalized_vs_dcw": norm,
            })

    # Cross-paper guarantee on the full grid: WIRE's energy column never
    # exceeds Flip-N-Write's (equality allowed — without payloads the
    # count tables price both identically; the strict win is pinned
    # per-line by the wire_vs_fnw_energy metamorphic relation).
    for workload in WORKLOADS:
        wire = cells[(workload, "wire")].mean_write_energy
        fnw = cells[(workload, "flip_n_write")].mean_write_energy
        assert wire <= fnw + 1e-9, (
            f"{workload}: WIRE energy {wire} exceeds FNW {fnw}"
        )
    # And PALP never schedules a longer write stage than Tetris.
    for workload in WORKLOADS:
        palp = cells[(workload, "palp")].mean_write_units
        tetris = cells[(workload, "tetris")].mean_write_units
        assert palp <= tetris + 1e-9, (
            f"{workload}: PALP units {palp} exceed Tetris {tetris}"
        )

    doc = {
        "grid": {
            "workloads": list(WORKLOADS),
            "schemes": list(SCHEMES),
            "requests_per_core": REQUESTS_PER_CORE,
            "seed": SEED,
            "baseline": BASELINE,
        },
        "code_version": code_salt()[:16],
        "lanes": {
            "fastpath": res.stats.fastpath_cells,
            "des": res.stats.des_cells,
        },
        "rows": rows,
    }
    with open(OUT_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")

    by_scheme = {
        s: [r for r in rows if r["scheme"] == s] for s in SCHEMES
    }
    lines = [
        "scheme zoo — cross-paper grid (normalized to dcw, geomean "
        "across workloads)",
        "=" * 68,
        f"{'scheme':<15} {'lane':<9} {'runtime':>8} {'ipc':>8} "
        f"{'units':>8} {'energy':>8}",
    ]

    for scheme in SCHEMES:
        rs = by_scheme[scheme]
        lane = rs[0]["lane"]
        g = {
            m: geometric_mean([r["normalized_vs_dcw"][m] for r in rs
                               if r["normalized_vs_dcw"][m] is not None])
            for m in ("runtime_ns", "ipc", "mean_write_units",
                      "mean_write_energy")
        }
        lines.append(
            f"{scheme:<15} {lane:<9} {g['runtime_ns']:>8.3f} "
            f"{g['ipc']:>8.3f} {g['mean_write_units']:>8.3f} "
            f"{g['mean_write_energy']:>8.3f}"
        )
    lines.append("")
    lines.append(
        f"{len(rows)} cells ({res.stats.fastpath_cells} fastpath / "
        f"{res.stats.des_cells} DES); WIRE <= FNW energy and "
        f"PALP <= Tetris units hold on the full grid"
    )
    lines.append(f"wrote {OUT_PATH.name}")
    emit("bench_scheme_zoo", "\n".join(lines))


def main() -> int:
    test_scheme_zoo_grid()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
