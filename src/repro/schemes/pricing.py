"""The write-service table: every write of a trace priced in one pass.

Both sweep lanes price writes here.  The DES lane feeds the table to
:class:`~repro.experiments.fullsystem.PrecomputedServiceModel`; the
analytic lane feeds it to the fastpath's queueing model.  Valid because
per-line write order under the FCFS-per-bank controller equals trace
order, so the content evolution each write sees is known up front.

The trace's per-write (SET, RESET) unit counts are post-inversion by
construction (every unit changes at most half its cells, so the flip
stage is the identity — see :mod:`repro.trace.content`).  The
content-independent schemes therefore take their closed forms, and the
content-aware ones (Tetris, its unaligned variant, PreSET, PALP,
DATACON) take the vectorized Algorithm-2 packers of
:mod:`repro.core.batch` on the raw counts.  What each scheme pays beyond
its write stage — the read-before-write, the energy model, PALP's
partition count — comes from the registered scheme object.  The oracle's
table lane (:mod:`repro.oracle.differential`) checks every scheme's
per-write units against the paper's closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.config import SystemConfig, default_config
from repro.core.batch import pack_batch, relaxed_subslots_batch
from repro.schemes.base import get_scheme
from repro.trace.record import OP_WRITE, Trace

__all__ = ["PRESET_ZEROS_PER_UNIT", "WriteServiceTable", "precompute_write_service"]

#: PreSET's demand depends on the absolute zero count of the new data,
#: which count tables do not carry; random line content has ~half zeros
#: per 64-bit unit, so the table charges that expectation.
PRESET_ZEROS_PER_UNIT = 32


@dataclass(frozen=True)
class WriteServiceTable:
    """Per-write pricing for one (trace, scheme) pair."""

    scheme: str
    service_ns: np.ndarray   # (n_writes,)
    units: np.ndarray        # (n_writes,) write-stage length in t_set units
    energy: np.ndarray       # (n_writes,) normalized energy

    def mean_units(self) -> float:
        return float(self.units.mean()) if self.units.size else 0.0


def precompute_write_service(
    trace: Trace,
    scheme_name: str,
    config: SystemConfig | None = None,
    *,
    variation=None,
    adaptive_analysis: bool = False,
) -> WriteServiceTable:
    """Price every write of a trace under one scheme, vectorized.

    ``variation`` (a :class:`~repro.pcm.variation.ProcessVariation`)
    scales each write's service time by its target line's regional
    cell-speed factor.  ``adaptive_analysis`` prices Tetris's hardware
    fast path for trivial schedules (see ``TetrisWrite``).
    """
    config = config if config is not None else default_config()
    scheme = get_scheme(scheme_name, config)
    n_set = trace.write_counts[..., 0].astype(np.int64)
    n_reset = trace.write_counts[..., 1].astype(np.int64)
    changed_set = n_set.sum(axis=1)
    changed_reset = n_reset.sum(axis=1)
    em = scheme.energy_model
    energy = em.write_energy(changed_set, changed_reset)
    analysis = 0.0
    pack = partial(
        pack_batch, K=config.K, L=config.L,
        power_budget=config.bank_power_budget, allow_split=True,
    )

    if scheme_name == "preset":
        n_zero = np.full_like(n_set, PRESET_ZEROS_PER_UNIT)
        units = pack(np.zeros_like(n_zero), n_zero).service_units()
        # Demand RESET now, the deferred SET in the background.
        energy = n_zero.sum(axis=1).astype(np.float64) * (em.e_reset + em.e_set)
    elif scheme_name == "tetris":
        units = pack(n_set, n_reset).service_units()
        analysis = config.analysis_overhead_ns
        if adaptive_analysis:
            # Hardware fast path (see TetrisWrite.adaptive_analysis):
            # trivial schedules answer in 4 cycles instead of 41.
            in1 = changed_set.astype(np.float64)
            in0 = changed_reset.astype(np.float64) * config.L
            trivial = (in1 <= config.bank_power_budget) & (
                in1 + in0 <= config.bank_power_budget
            )
            analysis = np.where(trivial, 10.0, config.analysis_overhead_ns)
    elif scheme_name == "tetris_relaxed":
        units = relaxed_subslots_batch(
            n_set, n_reset, K=config.K, L=config.L,
            power_budget=config.bank_power_budget,
        ) / config.K
        analysis = config.analysis_overhead_ns
    elif scheme_name == "palp":
        # min(serial Algorithm 2, slowest partition at budget/P) — the
        # batch analogue of PALPWrite's two-plan controller.
        units = pack(n_set, n_reset).service_units()
        if scheme.partition_feasible:
            parts = scheme.partitions
            chunk = -(-n_set.shape[1] // parts)  # ceil division
            worst = np.zeros(trace.n_writes, dtype=np.float64)
            for lo in range(0, n_set.shape[1], chunk):
                hi = lo + chunk
                worst = np.maximum(worst, pack(
                    n_set[:, lo:hi], n_reset[:, lo:hi],
                    power_budget=config.bank_power_budget / parts,
                ).service_units())
            units = np.minimum(units, worst)
        analysis = config.analysis_overhead_ns
    elif scheme_name == "datacon":
        # One conventional per-data-unit share per dirty unit; energy is
        # DCW's (changed cells, plain encoding).
        dirty = np.count_nonzero(n_set + n_reset, axis=1)
        per_dirty = config.units_per_line / config.data_units_per_line
        units = dirty.astype(np.float64) * per_dirty
    else:
        units = np.full(trace.n_writes, scheme.worst_case_units())
        if scheme_name in ("conventional", "two_stage"):
            # These program *every* cell; without payloads the expected
            # polarity split of random data is half/half.
            half = trace.units_per_line * config.data_unit_bits / 2.0
            energy = np.full(trace.n_writes, float(em.write_energy(half, half)))

    read_ns = config.timings.t_read_ns if scheme.requires_read else 0.0
    read_energy = em.read_energy_per_line if scheme.requires_read else 0.0
    service = read_ns + analysis + units * config.timings.t_set_ns
    if variation is not None:
        write_lines = trace.records["line"][trace.records["op"] == OP_WRITE]
        service = variation.apply(
            np.asarray(service, dtype=np.float64),
            write_lines.astype(np.int64),
        )
    return WriteServiceTable(
        scheme=scheme_name,
        service_ns=np.asarray(service, dtype=np.float64),
        units=np.asarray(units, dtype=np.float64),
        energy=np.asarray(energy + read_energy, dtype=np.float64),
    )
