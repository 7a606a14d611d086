"""Alternative packers: how good is Algorithm 2's greedy first-fit?

Algorithm 2 is first-fit-decreasing (FFD) in both passes.  This module
provides the comparison points for the optimality-gap ablation:

* :func:`best_fit_decreasing_bins` — BFD, the classic tighter greedy
  (place each burst in the *fullest* bin that still fits);
* :func:`optimal_bins` — exact minimal bin count by dynamic programming
  over subsets (8 data units -> 3^8 ≈ 6.6 k transitions per write, cheap
  enough to run over thousands of real writes);
* :func:`ffd_bins` — the write-1 pass of Algorithm 2 in isolation, for a
  like-for-like comparison.

Classic bin-packing theory bounds FFD at 11/9·OPT + 6/9; for the paper's
workloads the write-1 demands are so far below the budget that FFD is
optimal on virtually every write — the bench quantifies exactly how
often (the ``ablation_packers`` entry of ``benchmarks/bench_experiments.py``).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ffd_bins",
    "best_fit_decreasing_bins",
    "optimal_bins",
    "worst_fit_decreasing_bins",
]


def _clean(demands, budget: float) -> list[float]:
    out = [float(d) for d in np.atleast_1d(np.asarray(demands, dtype=np.float64)) if d > 0]
    for d in out:
        if d > budget:
            raise ValueError(f"demand {d} exceeds budget {budget}")
    return out


def ffd_bins(demands, budget: float) -> int:
    """First-fit-decreasing bin count (Algorithm 2's write-1 pass)."""
    bins: list[float] = []
    for d in sorted(_clean(demands, budget), reverse=True):
        for i, used in enumerate(bins):
            if used + d <= budget:
                bins[i] = used + d
                break
        else:
            bins.append(d)
    return len(bins)


def best_fit_decreasing_bins(demands, budget: float) -> int:
    """Best-fit-decreasing: place each burst in the tightest fitting bin."""
    bins: list[float] = []
    for d in sorted(_clean(demands, budget), reverse=True):
        best, best_left = -1, None
        for i, used in enumerate(bins):
            left = budget - used - d
            if left >= 0 and (best_left is None or left < best_left):
                best, best_left = i, left
        if best >= 0:
            bins[best] += d
        else:
            bins.append(d)
    return len(bins)


def worst_fit_decreasing_bins(demands, budget: float) -> int:
    """Worst-fit-decreasing: place each burst in the emptiest fitting bin.

    Spreads load instead of concentrating it — the natural hardware
    alternative when the goal is headroom per write unit (e.g. to leave
    interspace for write-0s in *every* unit, not just the last)."""
    bins: list[float] = []
    for d in sorted(_clean(demands, budget), reverse=True):
        best, best_left = -1, -1.0
        for i, used in enumerate(bins):
            left = budget - used - d
            if left >= 0 and left > best_left:
                best, best_left = i, left
        if best >= 0:
            bins[best] += d
        else:
            bins.append(d)
    return len(bins)


def optimal_bins(demands, budget: float) -> int:
    """Exact minimal number of bins (subset DP, <= ~16 items).

    ``dp[mask]`` = (min bins, max residual capacity of the last open bin)
    over all packings of the subset ``mask``; items are added one at a
    time into the last open bin when they fit, or open a new bin.  This
    is the standard O(2^n * n) bin-packing DP — exact, and fast enough
    for per-write use at n = 8.
    """
    items = _clean(demands, budget)
    n = len(items)
    if n == 0:
        return 0
    if n > 16:
        raise ValueError("optimal_bins supports at most 16 items")

    full = (1 << n) - 1
    # dp[mask] = (bins_used, space_left_in_last_bin), lexicographically
    # minimized on bins then maximized on space.
    dp = [(n + 1, 0.0)] * (full + 1)
    dp[0] = (0, 0.0)
    for mask in range(full + 1):
        bins_used, space = dp[mask]
        if bins_used > n:
            continue
        for i in range(n):
            if mask & (1 << i):
                continue
            nxt = mask | (1 << i)
            if items[i] <= space + 1e-12:
                cand = (bins_used, space - items[i])
            else:
                cand = (bins_used + 1, budget - items[i])
            cur = dp[nxt]
            if cand[0] < cur[0] or (cand[0] == cur[0] and cand[1] > cur[1]):
                dp[nxt] = cand
    return dp[full][0]
