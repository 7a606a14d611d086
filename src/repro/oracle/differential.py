"""Differential harness: analytic model vs scheme report vs DES execution.

For every registered write scheme this module generates demand vectors
(exhaustive small grids, seeded random draws, adversarial corners),
services them three independent ways and asserts the answers agree:

1. **analytic** — the closed-form / independently-implemented models of
   :mod:`repro.oracle.analytic` (Eqs. 1-5 straight from the paper);
2. **reported** — what the production scheme's ``WriteOutcome`` says;
3. **executed** — the latency observed by actually *running* the write's
   phases and scheduled bursts as events on the discrete-event simulator
   and reading the clock when the last one fires.

Any mismatch becomes a structured :class:`Divergence` record carrying the
scheme, the demand vector, all three values and the first write unit at
which the timelines part ways — enough to turn straight into a pinned
regression fixture under ``tests/fixtures/oracle/``.

Three lanes:

* the **scheduler lane** drives ``TetrisScheduler`` (and the batch packer
  and generalized packer) directly at several (K, L, budget) operating
  points, including budgets small enough to force burst splitting —
  corners the paper-point write path can never reach;
* the **write lane** drives every registered scheme end-to-end at the
  paper configuration, realizing each demand vector as an actual
  ``(stored image, new data)`` pair;
* the **table lane** prices the demand vectors as one synthetic trace
  through the write-service table both sweep lanes share
  (:func:`repro.schemes.pricing.precompute_write_service`) and checks
  every write's units and service time against the analytic model, at
  the paper configuration and at a mobile one whose budget forces
  burst splitting.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.config import SystemConfig, default_config, mobile_config
from repro.core.analysis import TetrisScheduler
from repro.core.batch import pack_batch
from repro.core.generalized import (
    BurstClass,
    GeneralizedSchedule,
    GeneralizedScheduler,
)
from repro.core.schedule import TetrisSchedule
from repro.oracle import analytic
from repro.pcm.state import LineState
from repro.schemes import SCHEME_REGISTRY, get_scheme
from repro.schemes.pricing import PRESET_ZEROS_PER_UNIT, precompute_write_service
from repro.sim.engine import Simulator
from repro.trace.record import OP_WRITE, RECORD_DTYPE, Trace

__all__ = [
    "Divergence",
    "DifferentialReport",
    "des_execute_schedule",
    "des_execute_generalized",
    "des_execute_phases",
    "generate_vectors",
    "run_differential",
    "SCHEDULER_POINTS",
]

_TOL = 1e-9

#: Scheduler-lane operating points.  The paper's bank point first; then
#: budgets shrunk until bursts must split (at the default config a unit
#: can draw at most 64*L = 128 = the whole bank budget, so over-budget
#: corners only exist at reduced budgets), a fractional-ratio point
#: where the historical rounding bug lived, and K sweeps.
SCHEDULER_POINTS: tuple[tuple[int, float, float], ...] = (
    (8, 2.0, 128.0),
    (8, 2.0, 16.0),
    (4, 1.5, 6.5),
    (16, 2.0, 12.0),
    (8, 3.0, 9.0),
)


# ----------------------------------------------------------------------
# Divergence records.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Divergence:
    """One disagreement between the three service-time answers."""

    scheme: str
    lane: str                 # "scheduler" | "write" | "batch" | "relaxed" | "table"
    kind: str                 # which pair disagreed, or which invariant broke
    point: dict               # the operating point (K, L, budget, ...)
    n_set: tuple[int, ...]
    n_reset: tuple[int, ...]
    analytic: float | None
    reported: float | None
    executed: float | None
    first_bad_unit: int | None
    detail: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


def _first_bad_unit(*values: float | None) -> int | None:
    """First write unit where the timelines can differ: the floor of the
    smallest diverging completion (they agree up to the shorter one)."""
    present = [v for v in values if v is not None]
    if len(present) < 2 or max(present) - min(present) <= _TOL:
        return None
    return int(min(present))


@dataclass
class DifferentialReport:
    """Aggregate outcome of one :func:`run_differential` run."""

    cases: int = 0
    seed: int = 0
    schemes: list[str] = field(default_factory=list)
    lane_cases: dict = field(default_factory=dict)
    divergences: list[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def to_dict(self) -> dict:
        return {
            "cases": self.cases,
            "seed": self.seed,
            "schemes": list(self.schemes),
            "lane_cases": dict(self.lane_cases),
            "ok": self.ok,
            "divergences": [d.to_dict() for d in self.divergences],
        }


# ----------------------------------------------------------------------
# DES replay: turn schedules / phase plans into simulator events.
# ----------------------------------------------------------------------
def des_execute_schedule(sched: TetrisSchedule, t_set_ns: float) -> float:
    """Replay an Algorithm-2 schedule on the DES; return the completion.

    One event per scheduled burst at its end time — a write-1 in write
    unit ``j`` ends at ``(j+1) * t_set``, a write-0 in global sub-slot
    ``s`` ends at ``(s+1) * t_set/K`` — and the write completes when the
    last event fires.  Independent of ``service_units()``'s arithmetic:
    if Eq. 5's bookkeeping ever declares slots no burst occupies (the
    phantom-capacity bug) the replayed clock disagrees.
    """
    sim = Simulator()
    t_sub = t_set_ns / sched.K
    done = [0.0]

    def _finish(end_ns: float) -> None:
        done[0] = max(done[0], end_ns)

    for op in sched.write1_queue:
        sim.at((op.slot + 1) * t_set_ns, _finish, (op.slot + 1) * t_set_ns)
    for op in sched.write0_queue:
        sim.at((op.slot + 1) * t_sub, _finish, (op.slot + 1) * t_sub)
    sim.run()
    return done[0]


def des_execute_generalized(sched: GeneralizedSchedule) -> float:
    """Replay a generalized (unaligned) schedule; return the completion."""
    sim = Simulator()
    done = [0.0]

    def _finish(end_ns: float) -> None:
        done[0] = max(done[0], end_ns)

    for b in sched.bursts:
        end = b.end_subslot * sched.sub_slot_ns
        sim.at(end, _finish, end)
    sim.run()
    return done[0]


def des_execute_phases(phases: Sequence[float]) -> float:
    """Replay a fixed-latency write as chained phase events; return the end.

    Each phase's completion event schedules the next phase, so the final
    clock reading exercises the simulator's ordering rather than just
    summing the list.
    """
    sim = Simulator()
    remaining = [float(p) for p in phases if p > 0]

    def _next() -> None:
        if remaining:
            sim.schedule(remaining.pop(0), _next)

    sim.at(0.0, _next)
    sim.run()
    return sim.now


# ----------------------------------------------------------------------
# Demand-vector generation.
# ----------------------------------------------------------------------
def _corner_vectors(
    units: int, K: int, L: float, budget: float, max_per_unit: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Adversarial corners for one operating point."""
    zeros = np.zeros(units, dtype=np.int64)
    # All-zero demand (silent write): must cost exactly zero.
    yield zeros.copy(), zeros.copy()
    # SET-only and RESET-only lines.
    full = np.full(units, max_per_unit, dtype=np.int64)
    yield full.copy(), zeros.copy()
    yield zeros.copy(), full.copy()
    # Single-unit demand over the budget in both passes (forces a split
    # when the budget allows fewer than max_per_unit cells).
    over1 = zeros.copy()
    over1[0] = max_per_unit
    yield over1, zeros.copy()
    yield zeros.copy(), over1.copy()
    # K-tail: a RESET count whose burst chunks leave a remainder chunk
    # (K not dividing the overflow tail) plus an odd straggler unit.
    cells_per_chunk = max(int(budget // L), 1)
    tail = zeros.copy()
    tail[0] = cells_per_chunk * K + 1
    if units > 1:
        tail[-1] = 1
    yield zeros.copy(), np.minimum(tail, max_per_unit)
    # Budget-boundary: exactly one cell below / at the split threshold.
    edge = zeros.copy()
    edge[0] = min(cells_per_chunk, max_per_unit)
    yield edge.copy(), edge.copy()


def _grid_vectors(
    units: int, max_count: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Exhaustive (n_set, n_reset) grid over small vectors."""
    ranges = [range(max_count + 1)] * units
    import itertools

    for s in itertools.product(*ranges):
        for r in itertools.product(*ranges):
            yield (
                np.array(s, dtype=np.int64),
                np.array(r, dtype=np.int64),
            )


def generate_vectors(
    rng: np.random.Generator,
    *,
    units: int,
    max_per_unit: int,
    K: int,
    L: float,
    budget: float,
    n_random: int,
    grid: bool = True,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The full vector set for one lane/point: grid + corners + random."""
    out: list[tuple[np.ndarray, np.ndarray]] = []
    if grid:
        # Exhaustive over the first two units; remaining units quiet so
        # every vector in a lane shares one shape (batch cross-check).
        pad = np.zeros(units, dtype=np.int64)
        for s, r in _grid_vectors(min(units, 2), 3):
            full_s, full_r = pad.copy(), pad.copy()
            full_s[: s.size] = s
            full_r[: r.size] = r
            out.append((full_s, full_r))
    out.extend(_corner_vectors(units, K, L, budget, max_per_unit))
    for _ in range(n_random):
        total = rng.integers(0, max_per_unit + 1, size=units)
        split = rng.integers(0, total + 1)
        out.append(
            (split.astype(np.int64), (total - split).astype(np.int64))
        )
    return out


# ----------------------------------------------------------------------
# Lane 1: the scheduler, batch packer and generalized packer.
# ----------------------------------------------------------------------
def _check_scheduler_point(
    K: int,
    L: float,
    budget: float,
    vectors: Iterable[tuple[np.ndarray, np.ndarray]],
    divergences: list[Divergence],
) -> int:
    point = analytic.OperatingPoint(
        K=K, L=L, budget=budget, data_units=8, write_units=8
    )
    point_dict = {"K": K, "L": L, "budget": budget}
    scheduler = TetrisScheduler(K, L, budget, allow_split=True)
    t_set = 430.0
    checked = 0
    batch_set: list[np.ndarray] = []
    batch_reset: list[np.ndarray] = []
    batch_reported: list[tuple[int, int]] = []

    for n_set, n_reset in vectors:
        checked += 1
        sched = scheduler.schedule(n_set, n_reset)
        reported = sched.service_units()
        a_result, a_subresult = analytic.tetris_pack(
            n_set.tolist(), n_reset.tolist(), point
        )
        expected = a_result + a_subresult / K
        executed = des_execute_schedule(sched, t_set) / t_set
        base = dict(
            scheme="tetris_scheduler",
            lane="scheduler",
            point=point_dict,
            n_set=tuple(int(x) for x in n_set),
            n_reset=tuple(int(x) for x in n_reset),
            analytic=expected,
            reported=reported,
            executed=executed,
            first_bad_unit=_first_bad_unit(expected, reported, executed),
        )
        if abs(reported - expected) > _TOL:
            divergences.append(Divergence(
                kind="reported_vs_analytic",
                detail=f"scheduler (result={sched.result}, subresult="
                       f"{sched.subresult}) vs oracle ({a_result}, {a_subresult})",
                **base,
            ))
        if abs(reported - executed) > _TOL:
            divergences.append(Divergence(
                kind="reported_vs_executed",
                detail="Eq. 5 bookkeeping disagrees with the replayed bursts",
                **base,
            ))
        batch_set.append(n_set)
        batch_reset.append(n_reset)
        batch_reported.append((sched.result, sched.subresult))

        # Relaxed lane at the same point: generalized packer vs the
        # independent unaligned oracle, and its DES replay.
        gsched = GeneralizedScheduler(budget, t_set / K).schedule({
            BurstClass("write1", K, 1.0): n_set,
            BurstClass("write0", 1, L): n_reset,
        })
        g_reported = gsched.total_subslots / K
        g_expected = analytic.tetris_relaxed_units(
            n_set.tolist(), n_reset.tolist(), point
        )
        g_executed = des_execute_generalized(gsched) / t_set
        if abs(g_reported - g_expected) > _TOL or abs(g_reported - g_executed) > _TOL:
            divergences.append(Divergence(
                scheme="generalized_scheduler",
                lane="relaxed",
                kind="reported_vs_analytic"
                if abs(g_reported - g_expected) > _TOL
                else "reported_vs_executed",
                point=point_dict,
                n_set=tuple(int(x) for x in n_set),
                n_reset=tuple(int(x) for x in n_reset),
                analytic=g_expected,
                reported=g_reported,
                executed=g_executed,
                first_bad_unit=_first_bad_unit(g_expected, g_reported, g_executed),
                detail="unaligned packer vs independent earliest-fit oracle",
            ))

    # Batch cross-check: the vectorized packer must agree vector-by-vector.
    ns = np.stack(batch_set)
    nr = np.stack(batch_reset)
    bres = pack_batch(ns, nr, K=K, L=L, power_budget=budget, allow_split=True)
    for i, (r, s) in enumerate(batch_reported):
        if int(bres.result[i]) != r or int(bres.subresult[i]) != s:
            divergences.append(Divergence(
                scheme="batch_packer",
                lane="batch",
                kind="batch_vs_scalar",
                point=point_dict,
                n_set=tuple(int(x) for x in batch_set[i]),
                n_reset=tuple(int(x) for x in batch_reset[i]),
                analytic=r + s / K,
                reported=float(bres.result[i] + bres.subresult[i] / K),
                executed=None,
                first_bad_unit=_first_bad_unit(
                    r + s / K, float(bres.result[i] + bres.subresult[i] / K)
                ),
                detail=f"scalar ({r}, {s}) vs batch "
                       f"({int(bres.result[i])}, {int(bres.subresult[i])})",
            ))
    return checked


# ----------------------------------------------------------------------
# Lane 2: every registered scheme, end to end at the paper point.
# ----------------------------------------------------------------------
def _realize(
    n_set: np.ndarray, n_reset: np.ndarray, unit_bits: int
) -> tuple[LineState, np.ndarray]:
    """Build a ``(stored image, new data)`` pair whose read stage yields
    exactly the requested per-unit program counts.

    Old image: ones in bit positions ``[0, n_reset)``.  New data: ones in
    ``[n_reset, n_reset + n_set)``.  With a clear flip tag the straight
    Hamming distance is ``n_set + n_reset <= unit_bits // 2``, so the
    flip rule keeps the straight encoding and the diff reproduces the
    demand exactly.
    """
    total = n_set + n_reset
    if int(total.max(initial=0)) > unit_bits // 2:
        raise ValueError("vector not realizable without triggering a flip")

    def _ones(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        out = np.zeros(lo.shape, dtype=np.uint64)
        for i in range(lo.size):
            val = 0
            for b in range(int(lo[i]), int(hi[i])):
                val |= 1 << b
            out[i] = val
        return out

    zeros = np.zeros_like(n_reset)
    old = _ones(zeros, n_reset)
    new = _ones(n_reset, n_reset + n_set)
    state = LineState(
        physical=old, flip=np.zeros(old.shape, dtype=bool)
    )
    return state, new


def _analytic_units_for(
    scheme: str,
    point: analytic.OperatingPoint,
    n_set: np.ndarray,
    n_reset: np.ndarray,
    new_logical: np.ndarray,
) -> float:
    n_zero = None
    if scheme == "preset":
        mask = (1 << point.unit_bits) - 1
        n_zero = [
            point.unit_bits - bin(int(u) & mask).count("1") for u in new_logical
        ]
    return analytic.scheme_units(
        scheme, point,
        n_set=n_set.tolist(), n_reset=n_reset.tolist(), n_zero=n_zero,
    )


def _executed_write_ns(scheme_obj, config: SystemConfig) -> float | None:
    """DES-replay the write stage the scheme actually scheduled."""
    sched = getattr(scheme_obj, "last_schedule", None)
    if isinstance(sched, TetrisSchedule):
        return des_execute_schedule(sched, config.timings.t_set_ns)
    if isinstance(sched, GeneralizedSchedule):
        return des_execute_generalized(sched)
    return None


def _check_write_scheme(
    name: str,
    config: SystemConfig,
    vectors: Iterable[tuple[np.ndarray, np.ndarray]],
    divergences: list[Divergence],
) -> int:
    point = analytic.OperatingPoint.from_config(config)
    point_dict = {
        "K": point.K, "L": point.L, "budget": point.budget,
        "config": "paper",
    }
    t_set = config.timings.t_set_ns
    checked = 0
    half = config.data_unit_bits // 2
    for n_set, n_reset in vectors:
        checked += 1
        # Clamp to the flip rule's guarantee: post-flip, at most half a
        # unit's cells are programmed, so anything beyond that is not a
        # vector the read stage can ever hand the scheme.
        n_set = np.minimum(n_set, half)
        n_reset = np.minimum(n_reset, half - n_set)
        state, new = _realize(n_set, n_reset, config.data_unit_bits)
        scheme = get_scheme(name, config)
        out = scheme.write(state, new)

        expected_units = _analytic_units_for(name, point, n_set, n_reset, new)
        expected_service = analytic.service_ns(name, expected_units, point)

        write_ns = _executed_write_ns(scheme, config)
        if write_ns is None:
            # Fixed-latency scheme: replay its phase plan.
            write_ns = des_execute_phases([out.units * t_set])
        executed_service = des_execute_phases(
            [out.read_ns, out.analysis_ns]
        ) + write_ns

        base = dict(
            scheme=name,
            lane="write",
            point=point_dict,
            n_set=tuple(int(x) for x in n_set),
            n_reset=tuple(int(x) for x in n_reset),
        )
        if abs(out.units - expected_units) > _TOL:
            divergences.append(Divergence(
                kind="reported_vs_analytic",
                analytic=expected_units,
                reported=out.units,
                executed=write_ns / t_set,
                first_bad_unit=_first_bad_unit(expected_units, out.units),
                detail="write-stage units disagree with the Eq. 1-5 model",
                **base,
            ))
        if abs(out.service_ns - expected_service) > _TOL:
            divergences.append(Divergence(
                kind="service_vs_analytic",
                analytic=expected_service,
                reported=out.service_ns,
                executed=executed_service,
                first_bad_unit=_first_bad_unit(
                    expected_service / t_set, out.service_ns / t_set
                ),
                detail="service composition (read+analysis+write) diverged",
                **base,
            ))
        if abs(out.service_ns - executed_service) > _TOL:
            divergences.append(Divergence(
                kind="reported_vs_executed",
                analytic=expected_service,
                reported=out.service_ns,
                executed=executed_service,
                first_bad_unit=_first_bad_unit(
                    out.service_ns / t_set, executed_service / t_set
                ),
                detail="DES-replayed phases finish at a different clock",
                **base,
            ))
    return checked


# ----------------------------------------------------------------------
# Lane 3: the write-service table both sweep lanes price from.
# ----------------------------------------------------------------------
def _counts_trace(n_set: np.ndarray, n_reset: np.ndarray) -> Trace:
    """A write-only trace whose per-write counts are the given vectors."""
    records = np.zeros(len(n_set), dtype=RECORD_DTYPE)
    records["op"] = OP_WRITE
    records["line"] = np.arange(len(n_set))
    return Trace(
        workload="oracle-table",
        seed=0,
        records=records,
        write_counts=np.stack([n_set, n_reset], axis=-1).astype(np.uint8),
        units_per_line=n_set.shape[1],
    )


def _check_table_scheme(
    name: str,
    config: SystemConfig,
    vectors: Sequence[tuple[np.ndarray, np.ndarray]],
    divergences: list[Divergence],
) -> int:
    point = analytic.OperatingPoint.from_config(config)
    point_dict = {
        "K": point.K, "L": point.L, "budget": point.budget,
        "write_units": point.write_units,
    }
    n_set = np.stack([s for s, _ in vectors])
    n_reset = np.stack([r for _, r in vectors])
    table = precompute_write_service(_counts_trace(n_set, n_reset), name, config)
    n_zero = [PRESET_ZEROS_PER_UNIT] * n_set.shape[1]
    for w in range(len(vectors)):
        expected = analytic.scheme_units(
            name, point, n_set=n_set[w].tolist(), n_reset=n_reset[w].tolist(),
            n_zero=n_zero,
        )
        expected_service = analytic.service_ns(name, expected, point)
        got, got_service = float(table.units[w]), float(table.service_ns[w])
        units_bad = abs(got - expected) > _TOL
        if units_bad or abs(got_service - expected_service) > _TOL:
            divergences.append(Divergence(
                scheme=name,
                lane="table",
                kind="units_vs_analytic" if units_bad else "service_vs_analytic",
                point=point_dict,
                n_set=tuple(int(x) for x in n_set[w]),
                n_reset=tuple(int(x) for x in n_reset[w]),
                analytic=expected if units_bad else expected_service,
                reported=got if units_bad else got_service,
                executed=None,
                first_bad_unit=_first_bad_unit(expected, got),
                detail="write-service table disagrees with the Eq. 1-5 model",
            ))
    return len(vectors)


# ----------------------------------------------------------------------
# Entry point.
# ----------------------------------------------------------------------
def run_differential(
    schemes: Sequence[str] | None = None,
    *,
    cases: int = 500,
    seed: int = 0,
    config: SystemConfig | None = None,
) -> DifferentialReport:
    """Run all three lanes; return a report with every divergence found.

    ``cases`` scales the *random* vector volume (the exhaustive grids
    and corner cases always run).  Roughly half the random budget goes
    to the scheduler lane (split across its operating points), half to
    the write lane (split across the schemes); the table lane draws as
    many vectors per scheme and configuration as the write lane.
    """
    if schemes is None:
        schemes = sorted(SCHEME_REGISTRY)
    unknown = set(schemes) - set(SCHEME_REGISTRY)
    if unknown:
        raise KeyError(f"unknown schemes: {sorted(unknown)}")
    config = config if config is not None else default_config()
    rng = np.random.default_rng(seed)
    report = DifferentialReport(seed=seed, schemes=list(schemes))

    # Lane 1: scheduler operating points.
    per_point = max(cases // (2 * len(SCHEDULER_POINTS)), 4)
    n_sched = 0
    for K, L, budget in SCHEDULER_POINTS:
        vectors = generate_vectors(
            rng, units=8, max_per_unit=32, K=K, L=L, budget=budget,
            n_random=per_point,
        )
        n_sched += _check_scheduler_point(
            K, L, budget, vectors, report.divergences
        )
    report.lane_cases["scheduler"] = n_sched

    # Lane 2: end-to-end schemes at the paper configuration.  Vectors
    # must stay realizable (<= unit_bits/2 programs per unit post-flip).
    half = config.data_unit_bits // 2
    per_scheme = max(cases // (2 * len(schemes)), 4)
    n_write = 0
    for name in schemes:
        vectors = generate_vectors(
            rng, units=config.data_units_per_line, max_per_unit=half,
            K=config.K, L=config.L, budget=config.bank_power_budget,
            n_random=per_scheme,
        )
        n_write += _check_write_scheme(
            name, config, vectors, report.divergences
        )
    report.lane_cases["write"] = n_write

    # Lane 3: the shared write-service table, at the paper point and at
    # a mobile point whose budget splits bursts.
    n_table = 0
    for table_config in (config, mobile_config()):
        half = table_config.data_unit_bits // 2
        for name in schemes:
            vectors = generate_vectors(
                rng, units=table_config.data_units_per_line,
                max_per_unit=half, K=table_config.K, L=table_config.L,
                budget=table_config.bank_power_budget, n_random=per_scheme,
            )
            n_table += _check_table_scheme(
                name, table_config, vectors, report.divergences
            )
    report.lane_cases["table"] = n_table
    report.cases = n_sched + n_write + n_table
    return report
