"""Figure 10: the average number of write units per cache-line write.

Sequentially executed write units are the paper's primary cost metric.
The baselines sit at their worst-case constants (DCW 8, Flip-N-Write 4,
2-Stage-Write 3, Three-Stage-Write 2.5); Tetris Write's count is measured
per write (paper: 1.06-1.46 on average, lowest for the light workloads,
highest where many cells change — dedup, vips).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import SystemConfig, default_config, theoretical_write_units
from repro.core.batch import pack_batch
from repro.trace.record import Trace

__all__ = ["WriteUnitsRow", "measure_write_units"]


@dataclass(frozen=True)
class WriteUnitsRow:
    """One workload's Figure-10 bars."""

    workload: str
    dcw: float
    flip_n_write: float
    two_stage: float
    three_stage: float
    tetris: float
    tetris_result: float     # mean write units consumed by write-1s
    tetris_subresult: float  # mean extra sub-slots consumed by write-0s


def measure_write_units(
    trace: Trace, config: SystemConfig | None = None
) -> WriteUnitsRow:
    """Pack every write of a trace and average Equation 5's unit count."""
    cfg = config if config is not None else default_config()
    theory = theoretical_write_units(cfg)
    packed = pack_batch(
        trace.write_counts[..., 0].astype(int),
        trace.write_counts[..., 1].astype(int),
        K=cfg.K,
        L=cfg.L,
        power_budget=cfg.bank_power_budget,
    )
    units = packed.service_units()
    return WriteUnitsRow(
        workload=trace.workload,
        dcw=theory["dcw"],
        flip_n_write=theory["flip_n_write"],
        two_stage=theory["two_stage"],
        three_stage=theory["three_stage"],
        tetris=float(units.mean()) if units.size else 0.0,
        tetris_result=float(packed.result.mean()) if units.size else 0.0,
        tetris_subresult=float(packed.subresult.mean()) if units.size else 0.0,
    )
