"""Figure 3: the number of RESET and SET operations per 64-bit data unit.

The paper measures, per workload, the average bit-writes a data unit
needs after Flip-N-Write-style inversion — the observation motivating
Tetris Write (9.6 per 64 bits on average: 6.7 SET + 2.9 RESET, with
ferret/vips near fifty-fifty and blackscholes/vips at the extremes).

This harness regenerates the figure from our synthetic workloads, pushing
every write's realized payload through the *actual read stage* (not the
generator's target counts) so the measurement path mirrors the paper's.
A fast mode trusts the trace counts directly (valid because the content
model's counts are post-inversion by construction; the slow path is the
cross-check).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.read_stage import read_stage
from repro.pcm.state import MemoryImage
from repro.trace.content import realize_payload
from repro.trace.record import Trace

__all__ = ["BitProfileRow", "measure_bit_profile"]


@dataclass(frozen=True)
class BitProfileRow:
    """One workload's Figure-3 bar pair."""

    workload: str
    mean_set: float
    mean_reset: float

    @property
    def total(self) -> float:
        return self.mean_set + self.mean_reset


def measure_bit_profile(
    trace: Trace, *, functional: bool = False, max_writes: int | None = None
) -> BitProfileRow:
    """Average per-unit (SET, RESET) across the trace's writes.

    ``functional=True`` realizes every payload against an evolving memory
    image and measures through :func:`~repro.core.read_stage.read_stage`
    — the paper's measurement path; the default trusts the trace counts.
    """
    if not functional:
        mean_set, mean_reset = trace.mean_bit_profile()
        return BitProfileRow(trace.workload, mean_set, mean_reset)

    image = MemoryImage(seed=trace.seed, units_per_line=trace.units_per_line)
    write_lines = trace.records["line"][trace.records["op"] == 1]
    n = trace.n_writes if max_writes is None else min(max_writes, trace.n_writes)
    tot_set = 0
    tot_reset = 0
    units = 0
    for w in range(n):
        line = int(write_lines[w])
        state = image.line(line)
        rng = np.random.default_rng(np.random.SeedSequence([trace.seed, w]))
        new_logical = realize_payload(rng, state.logical, trace.write_counts[w])
        rs = read_stage(state.physical, state.flip, new_logical)
        state.store(rs.physical, rs.flip)
        tot_set += int(rs.n_set.sum())
        tot_reset += int(rs.n_reset.sum())
        units += trace.units_per_line
    if units == 0:
        return BitProfileRow(trace.workload, 0.0, 0.0)
    return BitProfileRow(trace.workload, tot_set / units, tot_reset / units)
