"""Every experiment table, run, dumped and checked by one test.

Each entry reproduces one paper table or figure, or one extension of
it: the runner times ``run`` once, writes the rendered table to
``benchmarks/out/<id>.txt`` (printed with ``pytest -s``), then applies
the entry's shape checks (who wins, rough magnitude).  The entries
``tetris-write report`` also renders live in
:mod:`repro.experiments.table`; the rest live here.  The file holds no
timing gates, so CI runs it as the paper-shape check.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from _bench_utils import OUT_DIR, emit

from repro.analysis.timing_diagram import render_timing_diagram, scheme_timeline
from repro.config import (
    CPUConfig, MemCtrlConfig, PCMOrganization, default_config, theoretical_write_units)
from repro.core.analysis import TetrisScheduler, analyze
from repro.core.batch import pack_batch
from repro.core.generalized import BurstClass, GeneralizedScheduler
from repro.core.overhead import AnalysisOverheadModel
from repro.core.packers import (
    best_fit_decreasing_bins, ffd_bins, optimal_bins, worst_fit_decreasing_bins)
from repro.core.read_stage import cost_aware_flip, read_stage
from repro.cpu.system import CMPSystem
from repro.experiments.crossover import sweep_intensity
from repro.experiments.fig03 import measure_bit_profile
from repro.experiments.fullsystem import (
    PrecomputedServiceModel, WriteServiceTable, precompute_write_service, run_fullsystem)
from repro.experiments.table import (
    REPORT_EXPERIMENTS, Context, Experiment, read_gain, versus, with_average)
from repro.memctrl.frfcfs import RowBufferModel
from repro.pcm.energy import EnergyModel
from repro.pcm.mlc import MLCModel
from repro.pcm.state import LineState, MemoryImage, initial_line_content
from repro.pcm.variation import ProcessVariation
from repro.pcm.wear import StartGapLeveler, WearTracker
from repro.schemes import get_scheme
from repro.trace.content import realize_payload
from repro.trace.mixer import generate_mix
from repro.trace.synthetic import generate_trace
from repro.trace.workloads import PARSEC_WORKLOADS

#: Table I's schemes: the cell-oblivious pair, then the comparison family.
TABLE1_SCHEMES = ("conventional", "two_stage", "dcw", "flip_n_write",
                  "three_stage", "tetris")
#: Workloads spanning the Fig 3 change profile, light to heavy.
PICKS = ("blackscholes", "dedup", "ferret", "vips")


def service_stat(ctx: Context, workloads, schemes, stat) -> list[list]:
    """One row per workload: ``stat`` of each scheme's write-service table."""
    return [[wl] + [stat(ctx.service(wl, s)) for s in schemes] for wl in workloads]


def speedups(ctx: Context, workload: str, knobs) -> list[list]:
    """Rows ``[knob, runtime speedup, read-latency speedup]`` of Tetris
    over DCW, both under each ``(knob, config)``."""
    return versus(
        ctx, [(k, (workload, "dcw", cfg), (workload, "tetris", cfg)) for k, cfg in knobs],
        lambda k, dcw, tet: [k, dcw.runtime_ns / tet.runtime_ns,
                             dcw.mean_read_latency_ns / tet.mean_read_latency_ns],
    )


def cells_per_write(trace) -> np.ndarray:
    """Cells a comparison-based scheme programs per write (SET + RESET)."""
    counts = trace.write_counts.astype(np.int64)
    return counts[..., 0].sum(axis=1) + counts[..., 1].sum(axis=1)


# ------------------------------------------------------------- Fig 4
# The paper's worked example: 64 B line, four X16 chips, per-chip
# budget 32 (32 SETs / 16 RESETs concurrently), RESET:SET current ratio
# 2.  Write-1 currents 8+7+7+6+3 = 31 < 32 share write unit 1; the
# remaining write-1s (6, 6, 5) run in write unit 2, whose interspace
# absorbs every write-0.  Completion: Tetris T1 = 2 units < 3SW T2 =
# 2.5 < 2SW T3 = 3 < FNW T4 = 4.
FIG4_SET = np.array([8, 7, 7, 6, 6, 6, 5, 3])
FIG4_RESET = np.array([1, 1, 1, 2, 3, 2, 2, 5])


def _fig04_check(tl) -> None:
    assert tl.tetris == 2.0            # T1: two write units, nothing extra
    assert tl.three_stage == 2.5       # T2
    assert tl.two_stage == 3.0         # T3
    assert tl.flip_n_write == 4.0      # T4
    assert tl.conventional == 8.0      # not drawn in the figure
    assert tl.tetris_schedule.subresult == 0
    # Every write-0 of the example fits the write-1 interspace: the
    # paper's three in-a-row groupings all satisfy the budget.
    sched = tl.tetris_schedule
    assert sched.occupancy().max() <= 32.0
    assert len(sched.write0_queue) == 8   # all units have RESETs
    assert all(op.slot < sched.result * sched.K for op in sched.write0_queue)


# ---------------------------------------------------------- Table I
# The paper's Table I claims per scheme: does it reduce latency?  does
# it reduce energy?  Latency is quantified by the mean service time,
# energy by the per-write normalized energy, both on dedup vs. DCW.
PAPER_TABLE1 = {
    # scheme: (reduces latency?, reduces energy?) per paper Table I.
    "flip_n_write": (True, True),
    "two_stage": (True, False),
    "three_stage": (True, True),
    "tetris": (True, True),
}


def _table1(ctx: Context) -> list[list]:
    names = ("dcw", *PAPER_TABLE1)

    def mean_of(attr: str) -> list[float]:
        return service_stat(
            ctx, ("dedup",), names, lambda t: float(getattr(t, attr).mean()))[0][1:]

    lat, en = mean_of("service_ns"), mean_of("energy")
    yes = {True: "YES", False: "NO"}
    return [[name, l / lat[0], e / en[0], yes[cl], yes[ce]]
            for name, l, e, (cl, ce) in zip(names[1:], lat[1:], en[1:], PAPER_TABLE1.values())]


def _table1_check(rows: list[list]) -> None:
    by = {r[0]: r for r in rows}
    # Latency column: every scheme reduces service time vs. DCW.
    for name in PAPER_TABLE1:
        assert by[name][1] < 1.0, name
    # Energy column: comparison-based schemes stay ~at DCW level while
    # 2-Stage-Write pays for all 512 cells.
    assert by["two_stage"][2] > 2.0
    assert by["flip_n_write"][2] < 1.5
    assert by["three_stage"][2] < 1.5
    assert by["tetris"][2] < 1.5


# -------------------------------------------------------- Table III
# The synthetic generator is calibrated to the paper's measured rates;
# the table is regenerated from the traces and the measured rates must
# land on the published ones.

def _table3(ctx: Context) -> list[list]:
    rows = []
    for name, p in PARSEC_WORKLOADS.items():
        rpki, wpki = ctx.traces[name].measured_rpki_wpki()
        rows.append([name, p.domain, p.sharing, p.exchange, p.rpki, rpki, p.wpki, wpki])
    return rows


def _table3_check(rows: list[list]) -> None:
    for name, _, _, _, rpki_paper, rpki, wpki_paper, wpki in rows:
        assert rpki == pytest.approx(rpki_paper, rel=0.12), name
        assert wpki == pytest.approx(wpki_paper, rel=0.18), name


# ------------------------------------------------ Fig 3 cross-check
# The Fig 3 entry trusts the trace's drawn counts; this one realizes
# actual payloads against an evolving memory image and measures the
# SET/RESET counts through Algorithm 1 — the paper's measurement path.
# Agreement pins the content model's central claim (drawn counts are
# post-inversion by construction).
FIG3_FUNCTIONAL_WRITES = 80  # payload realization is the slow path


def _fig03_functional(ctx: Context) -> list[list]:
    rows = []
    for wl in PICKS:
        fast = measure_bit_profile(ctx.traces[wl])
        slow = measure_bit_profile(
            ctx.traces[wl], functional=True, max_writes=FIG3_FUNCTIONAL_WRITES
        )
        rows.append([wl, fast.total, slow.total, fast.mean_set, slow.mean_set])
    return rows


def _fig03_functional_check(rows: list[list]) -> None:
    for wl, t_fast, t_slow, s_fast, s_slow in rows:
        # The functional sample is small (80 writes) and the fast figure
        # averages the whole trace: compare loosely but meaningfully.
        assert abs(t_slow - t_fast) / max(t_fast, 1e-9) < 0.35, wl
        assert abs(s_slow - s_fast) / max(s_fast, 1e-9) < 0.4, wl


# ------------------------------------------------------------ §IV.D
# The analysis stage worst-cases at 41 cycles @ 400 MHz (102.5 ns) for
# 8 data units; the added logic draws < 4 mW against the pump's 125 mW
# division-write power (~3.2 %).  The timed run is the *software* cost
# of Algorithm 2 on one write (our stand-in for the HLS measurement).

def _overhead(ctx: Context) -> list[list]:
    rng = np.random.default_rng(0)
    TetrisScheduler(8, 2.0, 128.0).schedule(rng.poisson(6.7, size=8),
                                            rng.poisson(2.9, size=8))
    model = AnalysisOverheadModel()
    return [
        ["worst-case analysis latency", f"{model.measured_worst_ns:.1f} ns",
         "41 cycles @ 400 MHz (paper)"],
        ["read-before-write", "50.0 ns", "Tread (paper)"],
        ["logic power overhead", f"{model.power_overhead_fraction * 100:.1f} %",
         "4 mW / 125 mW (paper ~3.2 %)"],
        ["est. cycles @ 16 units (128 B line)", str(model.estimated_cycles(16)),
         "scaling model"],
        ["est. cycles @ 32 units (256 B line)", str(model.estimated_cycles(32)),
         "scaling model"],
    ]


def _overhead_check(rows: list[list]) -> None:
    model = AnalysisOverheadModel()  # rows hold its figures as text
    assert math.isclose(model.measured_worst_ns, 102.5)
    assert abs(model.power_overhead_fraction - 0.032) < 1e-9
    assert model.estimated_cycles(8) == 41


# ---------------------------------------------------- packer ablation
# Algorithm 2 is a first-fit-decreasing heuristic; hardware cannot
# afford an exact bin packer.  Over real workload demand distributions:
# how often does FFD's write-unit count equal the exact optimum
# (subset-DP), and how do best-fit and worst-fit greedy compare?

def _packers(ctx: Context) -> list[list]:
    rows = []
    for workload in PICKS:
        n_set = ctx.traces[workload].write_counts[:400, :, 0].astype(float)
        totals = np.zeros(4)
        hits = 0
        for demands in n_set:
            bins = [pack(demands, 128.0) for pack in (
                ffd_bins, best_fit_decreasing_bins, worst_fit_decreasing_bins, optimal_bins)]
            totals += bins
            hits += bins[0] == bins[3]
        n = len(n_set)
        rows.append([workload, *(float(t) / n for t in totals), 100.0 * hits / n])
    return rows


def _packers_check(rows: list[list]) -> None:
    for workload, ffd, bfd, _, opt, hit_rate in rows:
        assert ffd >= opt - 1e-9
        assert bfd >= opt - 1e-9
        # FFD must be optimal on essentially every real write.
        assert hit_rate >= 99.0, workload


# -------------------------------------------------- bank balance
# The line-interleaved address map should spread traffic evenly over
# the eight banks; a skewed map would silently serialize the system and
# corrupt every other figure.  Each scheme's total bank utilization
# shows Tetris completing the same work with a fraction of the busy
# time — the capacity headroom it frees.

def _bank_balance(ctx: Context) -> list[list]:
    rows = []
    for workload in ("canneal", "dedup", "vips"):
        trace = ctx.traces[workload]
        # Structural balance of the trace itself.
        counts = np.bincount((trace.records["line"] % 8).astype(int), minlength=8)
        imbalance = counts.max() / max(counts.mean(), 1.0)
        for scheme in ("dcw", "tetris"):
            res = run_fullsystem(trace, scheme)
            busy = np.array([res.controller.bank_busy_ns.get(b, 0.0) for b in range(8)])
            rows.append([workload, scheme, imbalance, busy.sum() / (8 * res.runtime_ns),
                         busy.max() / max(busy.mean(), 1e-9)])
    return rows


def _bank_balance_check(rows: list[list]) -> None:
    for workload, scheme, imbalance, util, busy_imb in rows:
        assert imbalance < 1.5, (workload, "traffic skew")
        assert busy_imb < 2.0, (workload, scheme, "service skew")
        assert 0.0 < util <= 1.0
    # Tetris's bank utilization is far below DCW's for the same work.
    by = {(r[0], r[1]): r[3] for r in rows}
    for workload in ("canneal", "dedup", "vips"):
        assert by[(workload, "tetris")] < by[(workload, "dcw")]


# ------------------------------------------------------------ CAFO
# Flip-N-Write's rule minimizes programmed-cell *count*; at the paper's
# operating point a SET costs ~4x a RESET in energy, so the
# count-optimal encoding is not the energy-optimal one.  CAFO's
# weighted rule (ref [22]) against the plain rule, on content where the
# two disagree: writes near the flip threshold and SET-heavy rewrites.

def _cafo(ctx: Context) -> list[list]:
    em = EnergyModel()
    rng = np.random.default_rng(0)

    def energy(rs) -> float:
        return float((rs.n_set.astype(float) * em.e_set
                      + rs.n_reset.astype(float) * em.e_reset).sum())

    scenarios = {
        # Fig-3-like small updates: flip rarely fires, no difference.
        "workload-typical": lambda old: old ^ rng.integers(0, 1 << 10, size=8, dtype=np.uint64),
        # Full random rewrites: ~half the units sit near the threshold
        # where the rules disagree.
        "full-rewrite": lambda old: rng.integers(
            0, np.iinfo(np.uint64).max, size=8, dtype=np.uint64),
        # SET-heavy: mostly-ones payloads (e.g. sentinel patterns).
        "set-heavy": lambda old: ~rng.integers(0, 1 << 22, size=8, dtype=np.uint64),
    }
    rows = []
    for name, mutate in scenarios.items():
        count_e = cost_e = 0.0
        n = 400
        for _ in range(n):
            old = rng.integers(0, np.iinfo(np.uint64).max, size=8, dtype=np.uint64)
            flips = np.zeros(8, dtype=bool)
            new = mutate(old)
            count_e += energy(read_stage(old, flips, new))
            cost_e += energy(cost_aware_flip(old, flips, new))
        rows.append([name, count_e / n, cost_e / n,
                     100.0 * (1 - cost_e / count_e) if count_e else 0.0])
    return rows


def _cafo_check(rows: list[list]) -> None:
    by = {r[0]: r for r in rows}
    # Never worse anywhere...
    for r in rows:
        assert r[2] <= r[1] * 1.001, r[0]
    # ...identical on typical workload content, strictly better on full
    # rewrites.
    assert abs(by["workload-typical"][3]) < 0.5
    assert by["full-rewrite"][3] > 0.5


# ----------------------------------------------- controller variants
# Controller/device knobs the paper holds fixed.  Row buffer: Table II
# uses flat 50 ns PCM reads; a row buffer (hit 30 ns / miss 60 ns)
# shifts read latency but not the scheme ranking (canneal, read-heavy:
# row locality matters most).

def _row_buffer(ctx: Context) -> list[list]:
    trace = ctx.traces["canneal"]
    rows = []
    for scheme in ("dcw", "tetris"):
        table = ctx.service("canneal", scheme)
        flat = run_fullsystem(trace, scheme, ctx.config, table=table)
        rb = CMPSystem(trace, ctx.config, PrecomputedServiceModel(table, ctx.config),
                       scheme_name=scheme,
                       row_buffer=RowBufferModel(lines_per_row=32)).run()
        rows.append([scheme, flat.mean_read_latency_ns, rb.mean_read_latency_ns])
    return rows


def _row_buffer_check(rows: list[list]) -> None:
    # The ranking is insensitive to the read-path model.
    assert rows[1][1] < rows[0][1]
    assert rows[1][2] < rows[0][2]


# Write coalescing absorbs same-line writes in the queue, reducing bank
# work for rewrite-heavy streams (vips: write-heavy with hot lines).

def _coalescing(ctx: Context) -> list[list]:
    merged = ctx.config.replace(memctrl=MemCtrlConfig(write_coalescing=True))
    return versus(
        ctx, [(s, ("vips", s, ctx.config), ("vips", s, merged)) for s in ("dcw", "tetris")],
        lambda s, a, b: [s, a.mean_read_latency_ns, b.mean_read_latency_ns,
                         b.controller.coalesced_writes],
    )


def _coalescing_check(rows: list[list]) -> None:
    assert rows[0][3] > 0          # hot lines do coalesce
    for r in rows:
        assert r[2] <= r[1] * 1.05  # never meaningfully worse


# GCP granularity: without the Global Charge Pump each chip packs its
# own 16-bit slices against a private budget of 32; the bank finishes
# with the slowest chip, costing Tetris some of its headroom.

def _gcp(ctx: Context) -> list[list]:
    rng = np.random.default_rng(4)
    bank = get_scheme("tetris", ctx.config)
    chip = get_scheme("tetris", ctx.config, granularity="chip")
    bank_units = chip_units = 0.0
    n = 250
    for w in range(n):
        old = initial_line_content(9, w)
        new = old ^ rng.integers(0, 1 << 22, size=8, dtype=np.uint64)
        bank_units += bank.write(LineState.from_logical(old.copy()), new).units
        chip_units += chip.write(LineState.from_logical(old.copy()), new).units
    return [["bank (GCP pooled, budget 128)", bank_units / n],
            ["chip (private budgets of 32)", chip_units / n]]


def _gcp_check(rows: list[list]) -> None:
    (_, bank_units), (_, chip_units) = rows
    assert chip_units >= bank_units - 1e-9


# ------------------------------------------------------- crossover
# Sweeps dedup's arrival intensity (factor 1.0 = its Table III rates)
# and reports every scheme's runtime against DCW.  The shape: all
# curves at ~1.0 when compute-bound, the paper's ordering once
# write-bound, and the knee in between.

def _crossover(ctx: Context) -> list[list]:
    points = sweep_intensity("dedup", requests_per_core=1200)
    return [[p.intensity, p.runtime_ratio["flip_n_write"],
             p.runtime_ratio["three_stage"], p.runtime_ratio["tetris"]]
            for p in points]


def _knee(rows: list[list]) -> float | None:
    """:func:`~repro.experiments.crossover.find_knee`'s rule on the rows:
    the lowest intensity whose Tetris runtime ratio is below 0.95."""
    return next((r[0] for r in sorted(rows) if r[3] < 0.95), None)


def _crossover_check(rows: list[list]) -> None:
    ratio = {r[0]: r for r in rows}
    # Compute-bound end: everything within a few percent of the baseline.
    assert ratio[0.05][3] > 0.93
    # Write-bound end: the paper's full ordering and a large gap.
    _, fnw, tsw3, tetris = ratio[4.0]
    assert tetris < tsw3 < fnw < 1.0
    assert tetris < 0.6
    # The knee exists and sits between the extremes.
    knee = _knee(rows)
    assert knee is not None and 0.05 < knee <= 4.0
    # Monotone separation: Tetris's advantage never shrinks as intensity
    # grows (allowing small simulation noise).
    ratios = [r[3] for r in rows]
    assert all(b <= a + 0.03 for a, b in zip(ratios, ratios[1:]))


# ------------------------------------------------------- endurance
# The endurance story behind Table I: comparison-based schemes program
# ~20-110 cells per line write where the conventional and 2-Stage
# schemes program all 512, an order-of-magnitude difference in wear.

def _endurance(ctx: Context) -> list[list]:
    trace = ctx.traces["dedup"]
    units = service_stat(ctx, ("dedup",), TABLE1_SCHEMES, lambda t: t.mean_units())[0][1:]
    rows = []
    for scheme, u in zip(TABLE1_SCHEMES, units):
        per_write = (np.full(trace.n_writes, 512.0)
                     if scheme in ("conventional", "two_stage") else cells_per_write(trace))
        rows.append([scheme, float(per_write.mean()), float(per_write.sum()), u])
    return rows


def _endurance_check(rows: list[list]) -> None:
    by = {r[0]: r[1] for r in rows}
    assert by["conventional"] == 512.0
    assert by["two_stage"] == 512.0
    assert by["tetris"] < 512.0 / 3
    assert by["tetris"] == by["dcw"] == by["three_stage"]


# Start-Gap (ref [5]) flattening the hot-line skew of vips's write
# stream.  The stream is folded into one region and repeated to model a
# long-running execution: Start-Gap levels on the timescale of
# region_size x gap_interval writes (a full rotation here).

def _start_gap(ctx: Context) -> list[list]:
    trace = ctx.traces["vips"]
    per_write = cells_per_write(trace)
    lines = trace.records["line"][trace.records["op"] == 1]
    region, repeats = 128, 20
    flat, leveled = WearTracker(), WearTracker()
    sg = StartGapLeveler(num_lines=region, gap_interval=8)
    mean_cells = max(int(per_write.mean()), 1)
    for _ in range(repeats):
        for w in range(trace.n_writes):
            la = int(lines[w]) % region
            cells = int(per_write[w])
            flat.record(la, cells, 0)
            leveled.record(sg.physical_of(la), cells, 0)
            moved = sg.on_write(la)
            if moved is not None:
                leveled.record(moved, mean_cells, 0)
    flat, leveled = flat.stats(), leveled.stats()
    return [
        ["lines touched", flat.lines_touched, leveled.lines_touched],
        ["max programs/line", flat.max_programs, leveled.max_programs],
        ["mean programs/line", flat.mean_programs, leveled.mean_programs],
        ["wear CoV", flat.cov, leveled.cov],
        ["relative lifetime", 1.0,
         leveled.lifetime_writes() / max(flat.lifetime_writes(), 1e-9)],
    ]


def _start_gap_check(rows: list[list]) -> None:
    by = {r[0]: r[1:] for r in rows}
    flat_max, leveled_max = by["max programs/line"]
    assert leveled_max <= flat_max
    flat_cov, leveled_cov = by["wear CoV"]
    assert leveled_cov < flat_cov


# ---------------------------------------------- energy per workload
# Table I's energy column quantified on every workload: normalized write
# energy per cache-line write (SET = 430, RESET = 106 units, the
# current x time products at the Table II operating point).
# Comparison-based schemes track the Fig 3 bit-change profile, so light
# workloads (blackscholes) cost a tiny fraction of the cell-oblivious
# schemes; 2-Stage-Write pays for all 512 cells regardless.

def _energy_check(rows: list[list]) -> None:
    by_wl = {r[0]: dict(zip(TABLE1_SCHEMES, r[1:])) for r in rows[:-1]}
    for wl, e in by_wl.items():
        # Energy column of Table I: 2SW/conv >> comparison family.
        assert e["two_stage"] > 3 * e["tetris"], wl
        assert e["conventional"] > 3 * e["dcw"], wl
        # The flip family all pay the same change profile + read.
        assert abs(e["tetris"] - e["three_stage"]) < 1e-6, wl
    # blackscholes (2 bits/unit) is far cheaper than vips (~17).
    assert by_wl["blackscholes"]["tetris"] < by_wl["vips"]["tetris"] / 4


# ------------------------------------------------ extended Fig 10
# Fig 10 plus two extension rows: PreSET (demand writes are RESET-only
# after background pre-SETting) and Tetris-Relaxed (earliest-fit without
# write-unit alignment).  PreSET beats even Tetris on *demand* units —
# its catch is the deferred background SETs (energy/endurance, see the
# endurance entries); Relaxed confirms the aligned FSMs give nothing
# away.
FIG10_EXT_SCHEMES = ("dcw", "flip_n_write", "three_stage", "tetris",
                     "tetris_relaxed", "preset")


def _fig10_ext_check(rows: list[list]) -> None:
    for wl, *units in rows:
        units = dict(zip(FIG10_EXT_SCHEMES, units))
        assert units["tetris_relaxed"] <= units["tetris"] + 1e-9, wl
        assert units["tetris"] < units["three_stage"], wl
        # PreSET's RESET-only demand write is extremely short.
        assert units["preset"] < units["three_stage"], wl


# ------------------------------------------------------- line size
# §I argues the problem *worsens* with modern last-level caches: IBM
# POWER7 uses 128 B lines and zEnterprise 256 B, doubling and
# quadrupling the sequential write units.  Tetris's measured unit count
# grows far slower than every worst-case baseline — more data units per
# line give the packer more slack (and the analysis overhead scales by
# the §IV.D cycle model).

def _line_size(ctx: Context) -> list[list]:
    overhead = AnalysisOverheadModel()
    rows = []
    for line_bytes in (64, 128, 256):
        units = line_bytes * 8 // 64
        cfg = default_config().replace(cache_line_bytes=line_bytes)
        trace = generate_trace("dedup", requests_per_core=800, units_per_line=units, seed=5)
        packed = pack_batch(trace.write_counts[..., 0].astype(int),
                            trace.write_counts[..., 1].astype(int),
                            K=cfg.K, L=cfg.L, power_budget=cfg.bank_power_budget)
        theory = theoretical_write_units(cfg)
        tetris = float(packed.service_units().mean())
        rows.append([f"{line_bytes}B", theory["dcw"], theory["flip_n_write"],
                     theory["three_stage"], tetris, theory["dcw"] / tetris,
                     overhead.estimated_ns(units)])
    return rows


def _line_size_check(rows: list[list]) -> None:
    gains = [r[5] for r in rows]
    assert gains[0] < gains[1] < gains[2]   # advantage widens with line size
    # Baselines double per step; Tetris must grow strictly slower.
    tetris = [r[4] for r in rows]
    assert tetris[1] < 2 * tetris[0]
    assert tetris[2] < 2 * tetris[1]


# ------------------------------------------------------------- MLC
# The paper restricts itself to SLC "for its better write performance";
# the idea transfers: with four program classes (one per MLC level, each
# its own duration/current), the generalized earliest-fit packer hides
# the short high-current RESETs and mid-length P&V staircases inside the
# long full-SET bursts, recovering a large factor over the serial
# baseline.

def _mlc(ctx: Context) -> list[list]:
    rng = np.random.default_rng(0)
    model = MLCModel()
    serial_total = tetris_total = 0.0
    n = 300
    for _ in range(n):
        old = rng.integers(0, 1 << 63, size=8, dtype=np.uint64)
        # MLC content churn: a few symbol rewrites per unit.
        new = old ^ rng.integers(0, 1 << 24, size=8, dtype=np.uint64)
        serial_total += model.serial_ns(old, new)
        tetris_total += model.tetris_ns(old, new)
    return [["serial MLC baseline", serial_total / n],
            ["generalized Tetris MLC", tetris_total / n]]


def _mlc_speedup(rows: list[list]) -> float:
    return rows[0][1] / rows[1][1] if rows[1][1] else float("inf")


def _mlc_check(rows: list[list]) -> None:
    assert rows[1][1] < rows[0][1]
    assert _mlc_speedup(rows) > 2.0


# How much does Algorithm 2's write-unit alignment cost vs. the
# unaligned earliest-fit relaxation, on real SLC workload demands?

def _alignment(ctx: Context) -> list[list]:
    trace = ctx.traces["vips"]
    w1, w0 = BurstClass("write1", 8, 1.0), BurstClass("write0", 1, 2.0)
    relaxed = GeneralizedScheduler(128.0, 430.0 / 8)
    aligned_total = relaxed_total = 0.0
    n = 400
    for w in range(n):
        n_set = trace.write_counts[w, :, 0].astype(int)
        n_reset = trace.write_counts[w, :, 1].astype(int)
        aligned_total += analyze(n_set, n_reset, power_budget=128.0).service_time_ns(430.0)
        relaxed_total += relaxed.schedule({w1: n_set, w0: n_reset}).completion_ns()
    return [["Algorithm 2 (write-unit aligned)", aligned_total / n],
            ["generalized earliest-fit (unaligned)", relaxed_total / n]]


def _alignment_check(rows: list[list]) -> None:
    (_, aligned_ns), (_, relaxed_ns) = rows
    assert relaxed_ns <= aligned_ns + 1e-9


# MLC at system level: every write of a small trace priced with the MLC
# model (payloads realized against an evolving image) and replayed
# through the DES — scheduled vs. serial MLC.

def _mlc_fullsystem(ctx: Context) -> list[list]:
    cfg = default_config()
    trace = generate_trace("dedup", requests_per_core=120, seed=9)
    model = MLCModel(power_budget=cfg.bank_power_budget)
    lines = trace.records["line"][trace.records["op"] == 1]
    rows = []
    for mode in ("serial", "tetris"):
        image = MemoryImage(seed=trace.seed)
        service = np.zeros(trace.n_writes)
        for w in range(trace.n_writes):
            state = image.line(int(lines[w]))
            rng = np.random.default_rng(np.random.SeedSequence([trace.seed, w]))
            new = realize_payload(rng, state.logical, trace.write_counts[w])
            old = state.logical.copy()
            state.store(new, np.zeros(8, dtype=bool))
            service[w] = (model.tetris_ns(old, new) if mode == "tetris"
                          else model.serial_ns(old, new))
        table = WriteServiceTable(scheme=f"mlc_{mode}", service_ns=service,
                                  units=service / cfg.timings.t_set_ns,
                                  energy=np.zeros_like(service))
        r = CMPSystem(trace, cfg, PrecomputedServiceModel(table, cfg),
                      scheme_name=table.scheme).run()
        rows.append([mode, r.mean_read_latency_ns, r.mean_write_latency_ns,
                     r.runtime_ns / 1e6])
    return rows


def _mlc_fullsystem_check(rows: list[list]) -> None:
    serial, tetris = rows
    assert tetris[1] < serial[1]   # read latency
    assert tetris[3] < serial[3]   # runtime


# ------------------------------------------------ multiprogrammed
# Each core runs a *different* application (disjoint address spaces),
# so the only coupling is the shared queues and banks.  A write-heavy
# neighbour (vips) poisons a read-mostly neighbour's (canneal) latency
# under DCW; Tetris shrinks the drains and with them the
# cross-application interference.

def _multiprogrammed(ctx: Context) -> list[list]:
    rows = []
    for workloads in (["canneal", "canneal", "vips", "vips"],
                      ["blackscholes", "dedup", "ferret", "vips"]):
        mix = generate_mix(workloads, requests_per_core=1200)
        dcw = run_fullsystem(mix, "dcw")
        tetris = run_fullsystem(mix, "tetris")
        # Per-core completion speedups: heterogeneous mixes are gated by
        # their most compute-bound member, so the makespan hides what
        # the memory-bound co-runners gained.
        speedups = [d.finish_ns / t.finish_ns if t.finish_ns > 0 else 1.0
                    for d, t in zip(dcw.cores[: len(workloads)],
                                    tetris.cores[: len(workloads)])]
        rows.append(["+".join(w[:4] for w in workloads),
                     dcw.mean_read_latency_ns, tetris.mean_read_latency_ns,
                     tetris.runtime_ns / dcw.runtime_ns, max(speedups), min(speedups)])
    return rows


def _multiprogrammed_check(rows: list[list]) -> None:
    for mix, rd_dcw, rd_tet, makespan, best, worst in rows:
        assert rd_tet < rd_dcw, mix          # interference shrinks
        assert makespan <= 1.0 + 1e-9, mix   # never slower overall
        assert best > 1.5, mix               # memory-bound cores gain big
        assert worst > 0.99, mix             # nobody loses


# -------------------------------------------------- seed stability
# One seeded trace per workload could get lucky: the key comparison
# (Tetris vs. DCW on the memory-bound workloads) repeated over several
# trace seeds.  The conclusions must hold for *every* seed, not on
# average.
SEEDS = (11, 22, 33, 44)


def _seed_stability(ctx: Context) -> list[list]:
    rows = []
    for workload in ("dedup", "vips"):
        ipc_x, rt = [], []
        for seed in SEEDS:
            trace = generate_trace(workload, requests_per_core=1200, seed=seed)
            dcw = run_fullsystem(trace, "dcw")
            tet = run_fullsystem(trace, "tetris")
            ipc_x.append(tet.ipc / dcw.ipc)
            rt.append(tet.runtime_ns / dcw.runtime_ns)
        rows.append([workload, float(np.mean(ipc_x)), float(np.std(ipc_x)),
                     float(np.mean(rt)), float(np.std(rt)), float(np.min(ipc_x))])
    return rows


def _seed_stability_check(rows: list[list]) -> None:
    for workload, ipc_mean, ipc_std, rt_mean, rt_std, ipc_worst in rows:
        assert ipc_worst > 1.3, workload       # wins on every seed
        assert ipc_std / ipc_mean < 0.1, workload   # tight spread
        assert rt_std / rt_mean < 0.1, workload


# ------------------------------------------------------ sensitivity
# Does the Tetris-vs-baseline conclusion depend on Table II's particular
# organization?  Three sweeps say no: more banks dilute per-bank
# queueing for everyone; deeper write queues defer drains for everyone;
# an O3-like MLP window hides some read latency, validating the
# DESIGN.md §4 substitution of blocking timing cores.

def _faster_everywhere(rows: list[list]) -> None:
    for knob, rt, rd in rows:
        assert rt > 1.0 and rd > 1.0, knob


SPEEDUP_HEADERS = ("runtime speedup", "read-latency speedup")


def _sensitivity_banks(ctx: Context) -> list[list]:
    return speedups(ctx, "dedup", [
        (banks, ctx.config.replace(organization=PCMOrganization(num_banks=banks)))
        for banks in (4, 8, 16)])


def _sensitivity_queue(ctx: Context) -> list[list]:
    return speedups(ctx, "vips", [
        (depth, ctx.config.replace(memctrl=MemCtrlConfig(
            write_queue_entries=depth, drain_high_watermark=hi, drain_low_watermark=lo)))
        for depth, hi, lo in ((16, 14, 4), (32, 28, 8), (64, 56, 16))])


def _sensitivity_mlp(ctx: Context) -> list[list]:
    return speedups(ctx, "ferret", [
        (mlp, ctx.config.replace(cpu=CPUConfig(max_outstanding_reads=mlp)))
        for mlp in (1, 2, 4, 8)])


# ---------------------------------------------------------- SJF drain
# A side benefit of the analysis stage the paper leaves on the table:
# by the time a write sits in the controller's queue, its exact service
# time (result + subresult/K)·Tset is already known.  Draining a bank's
# writes shortest-first instead of oldest-first minimizes mean queue
# wait within each drain burst at zero hardware cost (the comparator
# already exists for the queues' age ordering).

def _sjf(ctx: Context) -> list[list]:
    sjf = ctx.config.replace(memctrl=MemCtrlConfig(drain_order="sjf"))
    return versus(
        ctx, [(wl, (wl, "tetris", ctx.config), (wl, "tetris", sjf))
              for wl in ("dedup", "ferret", "vips")],
        lambda wl, fifo, sjf: [wl, fifo.mean_write_latency_ns, sjf.mean_write_latency_ns,
                               fifo.mean_read_latency_ns, sjf.mean_read_latency_ns],
    )


def _sjf_check(rows: list[list]) -> None:
    for workload, wf, ws, rf, rs in rows:
        assert ws <= wf * 1.02, workload      # mean write wait not worse
        assert rs <= rf * 1.10, workload      # reads not penalized


# -------------------------------------------------------- subarrays
# Refs [13]/[15] attack write-blocked reads with intra-bank parallelism:
# a read proceeds through a free subarray while a write occupies
# another.  Like write pausing, this helps the slow-write baseline far
# more than Tetris (canneal, read-heavy: bypass matters most).

def _subarrays(ctx: Context) -> list[list]:
    sub = ctx.config.replace(organization=PCMOrganization(subarrays_per_bank=4))
    return versus(ctx, [(s, ("canneal", s, ctx.config), ("canneal", s, sub))
                        for s in ("dcw", "tetris")], read_gain("subarray_reads"))


def _subarrays_check(rows: list[list]) -> None:
    by = {r[0]: r for r in rows}
    assert by["dcw"][4] > 0
    assert by["dcw"][3] > 5.0                  # real gain for the baseline
    # In absolute nanoseconds the baseline has far more blockage for the
    # bypass to reclaim (the relative gains can land within noise of
    # each other on read-heavy canneal).
    reclaimed_dcw = by["dcw"][1] - by["dcw"][2]
    reclaimed_tetris = by["tetris"][1] - by["tetris"][2]
    assert reclaimed_dcw > 2 * reclaimed_tetris
    # Bypass never hurts.
    for r in rows:
        assert r[2] <= r[1] * 1.02


# ------------------------------------------------------ tail latency
# Mean read latency understates what write-blocking does: the *tail* is
# where reads stuck behind a drain of 3.4 us DCW writes live.  Tetris's
# short writes compress the tail even more than the mean.

def _tail(ctx: Context) -> list[list]:
    rows = []
    for scheme in ("dcw", "flip_n_write", "two_stage", "three_stage", "tetris"):
        res = run_fullsystem(ctx.traces["ferret"], scheme)
        hist = res.controller.read_hist
        rows.append([scheme, res.mean_read_latency_ns, hist.percentile(50),
                     hist.percentile(95), hist.percentile(99)])
    return rows


def _tail_check(rows: list[list]) -> None:
    by = {r[0]: r for r in rows}
    # Tails ordered like the means, and Tetris's p99 is a large multiple
    # better than the baseline's.
    assert by["tetris"][4] < by["three_stage"][4] <= by["dcw"][4]
    assert by["dcw"][4] / by["tetris"][4] > 2.0
    # Every scheme's p99 >= its p50 (sanity of the histogram math).
    for r in rows:
        assert r[4] >= r[2]


# ---------------------------------------------------------- variation
# Per-region lognormal cell-speed factors (unit mean) stretch every
# scheme's pulses alike, so the Fig 11-14 ranking must be — and is —
# invariant; what variation changes is the *tail*: slow regions make
# the baseline's already-long drains pathological while Tetris's short
# writes keep the p99 bounded.

def _variation(ctx: Context) -> list[list]:
    trace = ctx.traces["dedup"]
    rows = []
    for sigma in (0.0, 0.15, 0.3):
        pv = ProcessVariation(sigma=sigma) if sigma else None
        res = {s: run_fullsystem(trace, s, table=precompute_write_service(
            trace, s, variation=pv)) for s in ("dcw", "tetris")}
        rows.append([sigma, res["dcw"].mean_read_latency_ns,
                     res["tetris"].mean_read_latency_ns,
                     res["dcw"].controller.read_hist.percentile(99),
                     res["tetris"].controller.read_hist.percentile(99),
                     res["dcw"].runtime_ns / res["tetris"].runtime_ns])
    return rows


def _variation_check(rows: list[list]) -> None:
    for sigma, rd_d, rd_t, p99_d, p99_t, speedup in rows:
        assert rd_t < rd_d, sigma        # ranking invariant
        assert speedup > 1.5, sigma
    # Variation inflates the baseline's mean read latency more than
    # Tetris's in absolute ns (the p99 columns agree, but move by a few
    # 50 ns histogram bins, so the means carry the comparison).
    assert rows[-1][1] - rows[0][1] >= rows[-1][2] - rows[0][2]


EXPERIMENTS: tuple[Experiment, ...] = (
    Experiment(
        "fig04_timing_diagram", "Fig 4", "", (),
        lambda ctx: scheme_timeline(FIG4_SET, FIG4_RESET, power_budget=32.0),
        _fig04_check,
        notes=lambda tl: render_timing_diagram(FIG4_SET, FIG4_RESET, power_budget=32.0)
        + "\n\npaper ordering: T1(tetris) < T2(3SW)=2.5 < T3(2SW)=3 < T4(FNW)=4"),
    Experiment(
        "table1_scheme_matrix", "Table I",
        "Table I — latency & energy vs. the DCW baseline (dedup)",
        ("scheme", "latency/DCW", "energy/DCW", "paper:lat?", "paper:energy?"),
        _table1, _table1_check,
        notes="DCW already writes changed cells only, so Table I's energy"
        "\ncolumn reads as: does the scheme stay at comparison-level"
        "\nenergy (YES) or pay for every cell like 2-Stage-Write (NO)?"),
    Experiment(
        "table3_workloads", "Table III",
        "Table III — multi-threaded workloads (paper vs. measured)",
        ("program", "domain", "sharing", "exchange",
         "RPKI(paper)", "RPKI(meas)", "WPKI(paper)", "WPKI(meas)"),
        _table3, _table3_check, float_fmt="{:.2f}"),
    Experiment(
        "fig03_functional", "Fig 3",
        "Figure 3 cross-check — drawn counts vs. realized payloads "
        f"through Algorithm 1 (first {FIG3_FUNCTIONAL_WRITES} writes)",
        ("workload", "total (counts)", "total (functional)",
         "SET (counts)", "SET (functional)"),
        _fig03_functional, _fig03_functional_check),
    Experiment(
        "overhead", "§IV.D", "§IV.D — Tetris Write overhead analysis",
        ("overhead", "value", "source"), _overhead, _overhead_check),
    Experiment(
        "ablation_packers", "ablation (ours)",
        "Ablation — write-1 bins per write: Algorithm 2's FFD vs. "
        "alternatives (bank budget 128)",
        ("workload", "FFD", "BFD", "WFD", "optimal", "FFD=opt (%)"),
        _packers, _packers_check,
        notes="At the paper's operating point per-unit demands are far below"
        "\nthe budget, so the greedy FFD is effectively optimal — the"
        "\nhardware-friendly choice loses nothing."),
    Experiment(
        "bank_balance", "diagnostic (ours)",
        "Diagnostics — bank load balance and utilization",
        ("workload", "scheme", "traffic imbalance", "mean bank util", "busy imbalance"),
        _bank_balance, _bank_balance_check,
        notes="(imbalance = max/mean; 1.0 is perfect.  Utilization is busy"
        "\ntime over runtime x banks — Tetris frees the difference.)"),
    Experiment(
        "cafo_flip", "ref [22] (ours)",
        "Extension — CAFO cost-aware flip vs. count-based flip",
        ("content", "count-flip energy", "cost-flip energy", "saving (%)"),
        _cafo, _cafo_check,
        notes="On the paper's workload profile the rules agree (changes stay"
        "\nbelow the threshold); CAFO pays off on threshold-straddling"
        "\nand SET-heavy content."),
    Experiment(
        "controller_row_buffer", "controller (ours)",
        "Extension — row-buffer model vs. flat PCM reads (canneal)",
        ("scheme", "flat 50ns reads", "row buffer 30/60ns"),
        _row_buffer, _row_buffer_check),
    Experiment(
        "controller_coalescing", "controller (ours)",
        "Extension — write coalescing (vips)",
        ("scheme", "read lat", "read lat (coalescing)", "absorbed"),
        _coalescing, _coalescing_check),
    Experiment(
        "controller_gcp", "§IV GCP (ours)",
        "Extension — GCP pooling vs. per-chip scheduling",
        ("granularity", "mean write units"),
        _gcp, _gcp_check,
        notes="Without GCP, data skew across chips stalls the bank on its"
        "\nbusiest chip — the reason §IV adopts the global charge pump."),
    Experiment(
        "crossover", "intensity sweep (ours)",
        "Crossover — runtime vs DCW across memory intensity (dedup)",
        ("intensity (x Table III)", "FNW", "3SW", "Tetris"),
        _crossover, _crossover_check,
        notes=lambda rows: f"knee: Tetris first beats DCW by >5% at intensity {_knee(rows)}"
        "\n(below it the cores are compute-bound and the scheme is moot)"),
    Experiment(
        "endurance_schemes", "Table I endurance (ours)",
        "Endurance — cells programmed per cache-line write (dedup)",
        ("scheme", "cells/write", "total cells", "write units"),
        _endurance, _endurance_check),
    Experiment(
        "endurance_startgap", "ref [5] (ours)",
        "Endurance — Start-Gap leveling on vips write stream",
        ("metric", "no leveling", "start-gap"),
        _start_gap, _start_gap_check),
    Experiment(
        "energy_per_workload", "Table I energy (ours)",
        "Write energy per cache-line write (normalized units)",
        ("workload", "conv", "2SW", "DCW", "FNW", "3SW", "Tetris"),
        lambda ctx: with_average(service_stat(
            ctx, ctx.traces, TABLE1_SCHEMES, lambda t: float(t.energy.mean()))),
        _energy_check, float_fmt="{:.0f}",
        notes="Table I quantified on every workload: conventional and"
        "\n2-Stage-Write pay for all 512 cells; the comparison-based"
        "\nfamily pays only for the Fig-3 change profile."),
    Experiment(
        "fig10_extended", "Fig 10 (ours)",
        "Extended Figure 10 — write units incl. extension schemes",
        ("workload", "DCW", "FNW", "3SW", "Tetris", "Relaxed", "PreSET"),
        lambda ctx: service_stat(ctx, PICKS, FIG10_EXT_SCHEMES, lambda t: t.mean_units()),
        _fig10_ext_check,
        notes="PreSET's demand units exclude its background SET debt (it"
        "\ntrades energy and endurance for latency); Relaxed == Tetris"
        "\nconfirms alignment costs nothing at this operating point."),
    Experiment(
        "line_size_sweep", "§I (ours)",
        "Extension — write units vs. cache-line size (dedup profile)",
        ("line", "DCW", "FNW", "3SW", "Tetris", "Tetris gain", "analysis (ns)"),
        _line_size, _line_size_check,
        notes="§I: POWER7 uses 128 B and zEnterprise 256 B LLC lines — the"
        "\nworst-case baselines scale linearly while Tetris's measured"
        "\ncount grows sublinearly, so its advantage widens."),
    Experiment(
        "mlc_extension", "MLC (ours)",
        "Extension — MLC (2-bit) write scheduling, 300 random writes",
        ("variant", "mean write-stage (ns)"), _mlc, _mlc_check,
        notes=lambda rows: f"speedup: {_mlc_speedup(rows):.2f}x"),
    Experiment(
        "slc_alignment_cost", "Algorithm 2 (ours)",
        "Extension — cost of write-unit alignment on vips demands",
        ("packer", "mean write-stage (ns)"), _alignment, _alignment_check,
        notes=lambda rows: "alignment overhead: "
        f"{100.0 * (rows[0][1] / rows[1][1] - 1.0):.1f}% "
        "(the hardware-simple aligned FSM gives up this much)"),
    Experiment(
        "mlc_fullsystem", "MLC (ours)",
        "Extension — MLC at full-system level (dedup, 2-bit cells)",
        ("MLC write path", "read lat (ns)", "write lat (ns)", "runtime (ms)"),
        _mlc_fullsystem, _mlc_fullsystem_check),
    Experiment(
        "multiprogrammed", "mixes (ours)",
        "Extension — multiprogrammed mixes (Tetris vs DCW)",
        ("mix", "read lat DCW", "read lat Tetris", "makespan",
         "best core speedup", "worst core speedup"),
        _multiprogrammed, _multiprogrammed_check,
        notes="Heterogeneous mixes expose a makespan effect: the compute-"
        "\nbound member gates total runtime, but every memory-bound"
        "\nco-runner individually finishes much earlier under Tetris."),
    Experiment(
        "seed_stability", "rigor (ours)",
        f"Seed stability — Tetris vs DCW over {len(SEEDS)} trace seeds",
        ("workload", "IPC-x mean", "IPC-x std", "runtime mean",
         "runtime std", "IPC-x worst seed"),
        _seed_stability, _seed_stability_check),
    Experiment(
        "sensitivity_banks", "Table II (ours)",
        "Sensitivity — Tetris vs DCW across bank counts (dedup)",
        ("banks", *SPEEDUP_HEADERS), _sensitivity_banks, _faster_everywhere),
    Experiment(
        "sensitivity_queue", "Table II (ours)",
        "Sensitivity — Tetris vs DCW across queue depths (vips)",
        ("write queue", *SPEEDUP_HEADERS), _sensitivity_queue, _faster_everywhere),
    Experiment(
        "sensitivity_mlp", "DESIGN.md §4 (ours)",
        "Sensitivity — Tetris vs DCW across MLP windows (ferret)",
        ("MLP window", *SPEEDUP_HEADERS), _sensitivity_mlp, _faster_everywhere,
        notes="An O3-like window hides some latency for every scheme, but"
        "\nthe Tetris advantage persists — the blocking-core substitute"
        "\nof DESIGN.md §4 does not manufacture the paper's result."),
    Experiment(
        "sjf_drain", "analysis stage (ours)",
        "Extension — FIFO vs. shortest-job-first write drains (Tetris)",
        ("workload", "write lat FIFO", "write lat SJF", "read lat FIFO", "read lat SJF"),
        _sjf, _sjf_check,
        notes="SJF exploits the analysis stage's exact service prediction;"
        "\nmean write wait within a drain burst shrinks, reads are"
        "\nessentially unaffected (drain total time is unchanged)."),
    Experiment(
        "subarrays", "refs [13]/[15] (ours)",
        "Extension — subarray read-under-write (canneal)",
        ("scheme", "read lat (1 subarray)", "read lat (4 subarrays)",
         "gain (%)", "bypassed reads"),
        _subarrays, _subarrays_check),
    Experiment(
        "tail_latency", "tail (ours)",
        "Extension — read latency distribution, ns (ferret)",
        ("scheme", "mean", "p50", "p95", "p99"),
        _tail, _tail_check, float_fmt="{:.0f}",
        notes="The tail compresses faster than the mean: drains of short"
        "\nTetris writes release blocked reads ~8x sooner than DCW's."),
    Experiment(
        "variation", "process variation (ours)",
        "Extension — cell-speed variation (dedup, per-region lognormal)",
        ("sigma", "read lat DCW", "read lat Tetris", "p99 DCW",
         "p99 Tetris", "runtime speedup"),
        _variation, _variation_check),
)

ALL = REPORT_EXPERIMENTS + EXPERIMENTS


@pytest.mark.parametrize("exp", ALL, ids=lambda exp: exp.id)
def test_experiment(exp, benchmark, ctx):
    rows = benchmark.pedantic(exp.run, args=(ctx,), rounds=1, iterations=1)
    emit(exp.id, exp.render(rows))
    exp.check(rows)


def test_every_dump_has_one_producer():
    """Ids are unique, and each ``out/*.txt`` comes from exactly one
    table entry or one standalone script's ``emit``."""
    ids = [exp.id for exp in ALL]
    assert len(ids) == len(set(ids)), "duplicate experiment ids"
    here = Path(__file__)
    emitted = [
        name
        for script in here.parent.glob("bench_*.py") if script != here
        for name in re.findall(r'emit\(\s*"(\w+)"', script.read_text())
    ]
    producers = Counter(ids + emitted)
    assert [name for name, n in producers.items() if n > 1] == []
    assert set(producers) == {p.stem for p in OUT_DIR.glob("*.txt")}
