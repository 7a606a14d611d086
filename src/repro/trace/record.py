"""Trace container and record format.

A trace is a flat, time-ordered sequence of post-LLC memory requests:

========  =====  ====================================================
field     dtype  meaning
========  =====  ====================================================
``core``  u1     issuing core (0..3 for the paper's 4-core CMP)
``op``    u1     :data:`OP_READ` or :data:`OP_WRITE`
``gap``   u4     instructions the core executes *before* this request
``line``  u8     cache-line address (line index, not byte address)
========  =====  ====================================================

Writes additionally carry a **bit-change profile**: for write *w* (in
record order), ``write_counts[w, u] = (n_set, n_reset)`` — the number of
cells of data unit *u* the write changes, post-inversion.  Per DESIGN.md
§4 the schemes are functions of these counts, so carrying the counts
(2 bytes/unit) instead of full payloads (8 bytes/unit) keeps big traces
small; :func:`repro.trace.content.realize_payload` can materialize bit-
exact payloads from the counts when the functional cell-level model needs
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["OP_READ", "OP_WRITE", "RECORD_DTYPE", "Trace"]

OP_READ = 0
OP_WRITE = 1

RECORD_DTYPE = np.dtype(
    [("core", "u1"), ("op", "u1"), ("gap", "u4"), ("line", "u8")]
)


@dataclass
class Trace:
    """One workload's memory trace plus its generation metadata."""

    workload: str
    seed: int
    records: np.ndarray                     # RECORD_DTYPE, time-ordered per core
    write_counts: np.ndarray                # (n_writes, units, 2) uint8
    units_per_line: int = 8
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.records.dtype != RECORD_DTYPE:
            raise TypeError(f"records must have dtype {RECORD_DTYPE}")
        n_writes = int((self.records["op"] == OP_WRITE).sum())
        if self.write_counts.shape != (n_writes, self.units_per_line, 2):
            raise ValueError(
                f"write_counts shape {self.write_counts.shape} does not match "
                f"{n_writes} writes x {self.units_per_line} units"
            )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.records)

    @property
    def n_reads(self) -> int:
        return int((self.records["op"] == OP_READ).sum())

    @property
    def n_writes(self) -> int:
        return int((self.records["op"] == OP_WRITE).sum())

    @property
    def write_indices(self) -> np.ndarray:
        """Record indices of the write requests, in order."""
        return np.nonzero(self.records["op"] == OP_WRITE)[0]

    def instructions_per_core(self) -> dict[int, int]:
        """Total instructions each core executes (sum of its gaps)."""
        out: dict[int, int] = {}
        for core in np.unique(self.records["core"]):
            mask = self.records["core"] == core
            out[int(core)] = int(self.records["gap"][mask].sum(dtype=np.int64))
        return out

    # ------------------------------------------------------------------
    def measured_rpki_wpki(self) -> tuple[float, float]:
        """Back out RPKI/WPKI from the trace (validates calibration)."""
        total_instr = sum(self.instructions_per_core().values())
        if total_instr == 0:
            return 0.0, 0.0
        return (
            1000.0 * self.n_reads / total_instr,
            1000.0 * self.n_writes / total_instr,
        )

    def mean_bit_profile(self) -> tuple[float, float]:
        """Average (SET, RESET) cells per data unit across all writes —
        the quantity Figure 3 plots."""
        if self.n_writes == 0:
            return 0.0, 0.0
        counts = self.write_counts.astype(np.float64)
        return float(counts[..., 0].mean()), float(counts[..., 1].mean())

    def per_core(self, core: int) -> np.ndarray:
        return self.records[self.records["core"] == core]
