"""Experiment orchestration: schemes x workloads sweeps with caching.

The Fig 11-14 benches all need the same grid of full-system runs.  The
runner delegates that grid to :class:`repro.parallel.SweepEngine`, which
fans cells over a process pool (``workers``), replays previously
computed cells from the content-addressed on-disk result cache, and
reuses each workload's trace across schemes — then hands back a tidy
list of :class:`ExperimentResult` rows that the report layer turns into
the paper's normalized figures.  ``workers=1`` with a cold cache runs
the exact cell code serially, bit-identical to any parallel run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from repro.config import SystemConfig
from repro.trace.workloads import WORKLOAD_NAMES

__all__ = ["ExperimentResult", "run_schemes_on_workloads", "BASELINE_SCHEME"]

BASELINE_SCHEME = "dcw"


@dataclass(frozen=True)
class ExperimentResult:
    """One (workload, scheme) cell of the evaluation grid."""

    workload: str
    scheme: str
    read_latency_ns: float
    write_latency_ns: float
    ipc: float
    runtime_ns: float
    mean_write_units: float
    mean_write_energy: float
    forwarded_reads: int
    events: int

    def normalized(self, base: "ExperimentResult") -> dict[str, float]:
        """The paper's normalizations against the DCW baseline.

        A zero baseline metric has no meaningful ratio — returning 0.0
        would let a degenerate baseline masquerade as an infinite
        improvement, so those entries are NaN (rendered ``n/a`` by the
        report layer).
        """

        def ratio(mine: float, theirs: float) -> float:
            return mine / theirs if theirs else math.nan

        return {
            "read_latency": ratio(self.read_latency_ns, base.read_latency_ns),
            "write_latency": ratio(self.write_latency_ns, base.write_latency_ns),
            "ipc_improvement": ratio(self.ipc, base.ipc),
            "running_time": ratio(self.runtime_ns, base.runtime_ns),
        }


def run_schemes_on_workloads(
    schemes: tuple[str, ...],
    workloads: tuple[str, ...] = WORKLOAD_NAMES,
    *,
    config: SystemConfig | None = None,
    requests_per_core: int = 4000,
    seed: int = 20160816,
    workers: int = 1,
    cache: object | None = None,
    cache_dir: str | Path | None = None,
) -> list[ExperimentResult]:
    """Run the full grid; returns one row per (workload, scheme).

    ``workers`` fans cells over a supervised process pool (output is
    bit-identical to serial); ``cache`` follows
    :class:`~repro.parallel.SweepEngine` semantics (``None`` = on unless
    ``REPRO_NO_CACHE``, ``False`` = off, or a
    :class:`~repro.parallel.ResultCache` instance).  Cell failures raise,
    matching the historical serial-loop behavior.
    """
    from repro.parallel.engine import SweepEngine

    engine = SweepEngine(
        config=config,
        requests_per_core=requests_per_core,
        root_seed=seed,
        workers=workers,
        cache=cache,
        cache_dir=cache_dir,
    )
    sweep = engine.run(tuple(schemes), tuple(workloads))
    sweep.raise_errors()
    return sweep.rows

