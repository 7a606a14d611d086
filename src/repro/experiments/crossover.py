"""Crossover analysis: where does write scheduling stop mattering?

The paper's gains live in the write-bound regime.  This experiment
sweeps memory intensity — scaling a workload's instruction gaps so the
same requests arrive faster or slower — and charts each scheme's runtime
ratio against the DCW baseline.  At low intensity every scheme converges
to 1.0 (cores never wait for memory); as intensity grows the curves
separate in the paper's order.  The interesting outputs are the
*knee* (intensity where Tetris first wins ≥ 5 %) and the saturated gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import SystemConfig, default_config
from repro.experiments.fullsystem import run_fullsystem
from repro.trace.record import Trace
from repro.trace.synthetic import generate_trace

__all__ = ["CrossoverPoint", "scale_intensity", "sweep_intensity"]


@dataclass(frozen=True)
class CrossoverPoint:
    """One intensity sample: scale factor -> normalized runtimes."""

    intensity: float
    runtime_ratio: dict[str, float]  # scheme -> runtime / DCW runtime
    read_latency_ratio: dict[str, float]


def scale_intensity(trace: Trace, factor: float) -> Trace:
    """Scale a trace's memory intensity by ``factor``.

    Dividing every instruction gap by the factor makes the same requests
    arrive ``factor``x faster (RPKI/WPKI scale up accordingly); gaps are
    floored at one instruction.
    """
    if factor <= 0:
        raise ValueError("intensity factor must be positive")
    records = trace.records.copy()
    records["gap"] = np.maximum(
        (records["gap"].astype(np.float64) / factor).astype(np.uint32), 1
    )
    return Trace(
        workload=f"{trace.workload}@x{factor:g}",
        seed=trace.seed,
        records=records,
        write_counts=trace.write_counts,
        units_per_line=trace.units_per_line,
        meta={**trace.meta, "intensity": factor},
    )


def _intensity_point(
    base_trace: Trace,
    schemes: tuple[str, ...],
    cfg: SystemConfig,
    factor: float,
) -> CrossoverPoint:
    """One intensity sample: every scheme and DCW on the scaled trace."""
    trace = scale_intensity(base_trace, factor)
    dcw = run_fullsystem(trace, "dcw", cfg)
    runtime_ratio = {}
    read_ratio = {}
    for scheme in schemes:
        res = run_fullsystem(trace, scheme, cfg)
        runtime_ratio[scheme] = res.runtime_ns / dcw.runtime_ns
        read_ratio[scheme] = (
            res.mean_read_latency_ns / dcw.mean_read_latency_ns
            if dcw.mean_read_latency_ns
            else 1.0
        )
    return CrossoverPoint(
        intensity=factor,
        runtime_ratio=runtime_ratio,
        read_latency_ratio=read_ratio,
    )


def sweep_intensity(
    workload: str = "dedup",
    factors: tuple[float, ...] = (0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0),
    schemes: tuple[str, ...] = ("flip_n_write", "three_stage", "tetris"),
    *,
    requests_per_core: int = 1500,
    seed: int = 20160816,
    config: SystemConfig | None = None,
) -> list[CrossoverPoint]:
    """Run the intensity sweep; factor 1.0 is the workload's Table III rate.

    Points come back in ``factors`` order.
    """
    cfg = config if config is not None else default_config()
    base_trace = generate_trace(workload, requests_per_core, seed=seed)
    return [
        _intensity_point(base_trace, tuple(schemes), cfg, factor)
        for factor in factors
    ]


def find_knee(
    points: list[CrossoverPoint], scheme: str = "tetris", threshold: float = 0.95
) -> float | None:
    """Lowest intensity where the scheme's runtime ratio drops below the
    threshold (None if it never does)."""
    for p in sorted(points, key=lambda p: p.intensity):
        if p.runtime_ratio.get(scheme, 1.0) < threshold:
            return p.intensity
    return None
