"""PALP — partition-level parallelism over the Tetris power packer.

PALP (see PAPERS.md: "Enabling and Exploiting Partition-Level
Parallelism in PCM", arXiv:1908.07966) observes that a PCM bank is
physically a set of partitions that can program concurrently as long as
each stays inside its share of the charge-pump budget.  Layered on
Tetris Write, the controller prices *two* access plans per line write
and issues the cheaper one:

* **serial** — the paper's Algorithm 2 against the full bank budget
  (exactly the ``tetris`` scheme's write stage);
* **partitioned** — the line's data units split into ``partitions``
  contiguous chunks, each chunk Algorithm-2 packed against
  ``budget / partitions``, all partitions programming concurrently; the
  write stage is the slowest partition's schedule.

``units = min(serial, partitioned)``, so PALP never does worse than
single-partition Tetris (the ``palp_vs_tetris`` metamorphic relation)
and wins when the line's demand spreads across partitions — the
partitioned plan turns write units that Algorithm 2 would serialize
under the pooled budget into concurrent per-partition units.  When the
per-partition budget cannot cover even one cell's program current
(``budget / partitions < max(1, L)``) the partitioned plan is
infeasible and the controller always issues the serial plan.

Like Tetris, PALP pays the read stage and the analysis overhead (it
runs Algorithm 2 twice, but the two packs are independent hardware
passes over the same counts, so the measured 41-cycle overhead is
unchanged).  Sweeps price it on either lane from the shared write-service
table (:mod:`repro.schemes.pricing`), which packs both plans vectorized.
"""

from __future__ import annotations

import numpy as np

from repro.config import SystemConfig
from repro.core.analysis import TetrisScheduler
from repro.core.read_stage import read_stage
from repro.pcm.state import LineState
from repro.schemes.base import WriteOutcome, WriteScheme

__all__ = ["PALPWrite"]

_U64 = np.uint64


class PALPWrite(WriteScheme):
    """``units = min(serial Tetris, slowest-partition Tetris at budget/P)``."""

    name = "palp"
    requires_read = True

    def __init__(
        self, config: SystemConfig | None = None, *, partitions: int = 2
    ) -> None:
        super().__init__(config)
        if partitions < 1:
            raise ValueError("partitions must be >= 1")
        self.partitions = partitions
        cfg = self.config
        self.serial_scheduler = TetrisScheduler(
            cfg.K, cfg.L, cfg.bank_power_budget, allow_split=True
        )
        sub_budget = cfg.bank_power_budget / partitions
        # A partition must cover at least one cell's program current
        # (SET = 1, RESET = L); below that only the serial plan exists.
        self.partition_feasible = sub_budget >= max(1.0, cfg.L)
        self.partition_scheduler = (
            TetrisScheduler(cfg.K, cfg.L, sub_budget, allow_split=True)
            if self.partition_feasible
            else None
        )
        # No single TetrisSchedule describes the min-of-plans write
        # stage, so DES replay uses the phase plan (units * t_set).
        self.last_schedule = None

    def worst_case_units(self) -> float:
        """Serial-plan bound: same queue-admission bound as Tetris."""
        return float(self.config.units_per_line) + (
            self.config.data_units_per_line / self.config.K
        )

    # ------------------------------------------------------------------
    def _partitioned_units(
        self, n_set: np.ndarray, n_reset: np.ndarray
    ) -> float | None:
        """Slowest partition's Eq. 5 length, or None when infeasible."""
        if self.partition_scheduler is None:
            return None
        chunk = -(-n_set.size // self.partitions)  # ceil division
        worst = 0.0
        for p in range(self.partitions):
            lo, hi = p * chunk, min((p + 1) * chunk, n_set.size)
            if lo >= hi:
                break
            sched = self.partition_scheduler.schedule(
                n_set[lo:hi], n_reset[lo:hi]
            )
            worst = max(worst, sched.service_units())
        return worst

    def _write_once(self, state: LineState, new_logical: np.ndarray) -> WriteOutcome:
        new_logical = np.asarray(new_logical, dtype=_U64)
        rs = read_stage(
            state.physical,
            state.flip,
            new_logical,
            unit_bits=self.config.data_unit_bits,
            count_flip_bit=self.config.count_flip_bit,
        )
        serial = self.serial_scheduler.schedule(
            rs.n_set, rs.n_reset
        ).service_units()
        parallel = self._partitioned_units(rs.n_set, rs.n_reset)
        units = serial if parallel is None else min(serial, parallel)

        state.store(rs.physical, rs.flip)
        return self._outcome(
            units=units,
            read_ns=self.t_read,
            analysis_ns=self.config.analysis_overhead_ns,
            n_set=int(rs.n_set.sum()),
            n_reset=int(rs.n_reset.sum()),
            flipped_units=int(rs.flip.sum()),
        )
