"""Figures 11-14 — the full-system grid normalized to the DCW baseline.

All four figures read the session's 8-workload x 5-scheme grid
(``conftest.fullsystem_grid``); each row of :data:`FIGURES` names the
metric, the table text, the cell whose simulation is timed, and the
figure's shape check.  Paper claims:

* Fig 11 read latency: Tetris 65 % average reduction; Flip-N-Write
  39 %, 2-Stage-Write 50 %, Three-Stage-Write 56 %.  Tetris wins on
  every workload; three of eight workloads beat Three-Stage-Write by
  > 10 %.
* Fig 12 write latency: Tetris > 40 % average reduction and beats
  Flip-N-Write / 2-Stage-Write / Three-Stage-Write by 15 / 7 / 5
  points.  In blackscholes and swaptions the improvement is "not that
  obvious": their write queues rarely fill, so queue waiting (identical
  across schemes) dominates the scheme-dependent service time.
* Fig 13 IPC improvement (Equation 6): Tetris 2.0x, Three-Stage-Write
  1.8x, 2-Stage-Write 1.6x, Flip-N-Write 1.4x on average.  Tetris
  shows the largest improvement on every workload.
* Fig 14 running time: Tetris > 46 % average reduction and beats
  Flip-N-Write / 2-Stage-Write / Three-Stage-Write by 22 / 12 / 7
  points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import pytest

from repro.analysis.metrics import arithmetic_mean
from repro.analysis.report import format_table
from repro.experiments.fullsystem import run_fullsystem

from _bench_utils import SCHEMES, emit

#: The near-idle workloads: write queues rarely fill, and schemes differ
#: by 1-2 %, where drain-timing noise can reorder neighbours.
LIGHT = ("blackscholes", "swaptions")

#: Per-workload normalized values, in (FNW, 2SW, 3SW, Tetris) order.
Values = dict[str, tuple[float, float, float, float]]


def _tetris_mean(values: Values, *, skip: tuple[str, ...] = ()) -> float:
    return arithmetic_mean([v[3] for wl, v in values.items() if wl not in skip])


def _fig11_shape(values: Values) -> None:
    # The paper's full ranking on every workload, Tetris on top.
    for wl, (fnw, tsw2, tsw3, tet) in values.items():
        assert tet < tsw3 < tsw2 < fnw < 1.0 + 1e-9, wl
    # Tetris's average reduction is substantial (paper: 65 %).
    assert _tetris_mean(values) < 0.6


def _fig12_shape(values: Values) -> None:
    for wl, (fnw, tsw2, tsw3, tet) in values.items():
        if wl in LIGHT:
            # The read-dominant nuance: light workloads barely improve.
            assert tet > 0.85, wl
        else:
            assert tet < tsw3 <= tsw2 < fnw, wl
            assert tet < 0.7, wl
    # Average reduction is substantial overall.
    assert _tetris_mean(values) < 0.75


def _fig13_shape(values: Values) -> None:
    # Strict ranking on the memory-bound workloads.
    for wl, (fnw, tsw2, tsw3, tet) in values.items():
        if wl in LIGHT:
            assert tet >= 0.99 and fnw >= 0.99, wl
        else:
            assert tet >= tsw3 >= tsw2 >= fnw >= 1.0 - 1e-9, wl
    # The memory-bound workloads dominate the paper's 2x average.
    assert _tetris_mean(values, skip=LIGHT) > 1.6


def _fig14_shape(values: Values) -> None:
    # Strict ranking on the memory-bound workloads.
    for wl, (fnw, tsw2, tsw3, tet) in values.items():
        if wl in LIGHT:
            assert tet <= 1.0 + 1e-9 and fnw <= 1.0 + 1e-9, wl
        else:
            assert tet <= tsw3 <= tsw2 <= fnw <= 1.0 + 1e-9, wl
    assert _tetris_mean(values, skip=LIGHT) < 0.65


@dataclass(frozen=True)
class Figure:
    name: str          # benchmarks/out/<name>.txt
    metric: str        # ExperimentResult.normalized() key
    title: str
    paper: str         # paper lines appended under the table
    reductions: bool   # also print the measured average reductions
    timed: str         # workload whose tetris simulation is timed
    shape: Callable[[Values], None]


FIGURES = (
    Figure(
        "fig11_read_latency", "read_latency",
        "Figure 11 — read latency normalized to DCW (lower is better)",
        "paper average reductions: FNW 39%, 2SW 50%, 3SW 56%, Tetris 65%",
        True, "dedup", _fig11_shape,
    ),
    Figure(
        "fig12_write_latency", "write_latency",
        "Figure 12 — write latency normalized to DCW (lower is better)",
        "paper: Tetris > 40% reduction; +15/+7/+5 pts over FNW/2SW/3SW\n"
        "paper nuance: blackscholes/swaptions barely improve (wait-dominated)",
        False, "vips", _fig12_shape,
    ),
    Figure(
        "fig13_ipc", "ipc_improvement",
        "Figure 13 — IPC improvement over DCW (higher is better)",
        "paper averages: FNW 1.4x, 2SW 1.6x, 3SW 1.8x, Tetris 2.0x",
        False, "ferret", _fig13_shape,
    ),
    Figure(
        "fig14_running_time", "running_time",
        "Figure 14 — running time normalized to DCW (lower is better)",
        "paper: Tetris 46% avg reduction; +22/+12/+7 pts over FNW/2SW/3SW",
        True, "canneal", _fig14_shape,
    ),
)


@pytest.mark.parametrize("fig", FIGURES, ids=lambda fig: fig.name)
def test_fullsystem_figure(
    fig, benchmark, traces, fullsystem_grid, grid_baseline
):
    benchmark.pedantic(
        lambda: run_fullsystem(traces[fig.timed], "tetris"),
        rounds=1, iterations=1,
    )

    compared = [s for s in SCHEMES if s != "dcw"]
    values: Values = {}
    for wl in traces:
        base = grid_baseline[wl]
        values[wl] = tuple(
            next(
                x for x in fullsystem_grid if x.workload == wl and x.scheme == s
            ).normalized(base)[fig.metric]
            for s in compared
        )
    norm = {s: [values[wl][i] for wl in traces] for i, s in enumerate(compared)}
    rows = [[wl, *v] for wl, v in values.items()]
    rows.append(["AVERAGE"] + [arithmetic_mean(norm[s]) for s in compared])

    table = format_table(
        ["workload", "FNW", "2SW", "3SW", "Tetris"], rows, title=fig.title
    )
    table += "\n" + fig.paper
    if fig.reductions:
        table += "\nmeasured average reductions: " + ", ".join(
            f"{s} {100 * (1 - arithmetic_mean(norm[s])):.0f}%" for s in compared
        )
    emit(fig.name, table)

    fig.shape(values)
