"""Vectorized Algorithm 2 over whole traces.

The full-system experiments (Figs 11-14) need the Tetris service time of
every write in a trace — hundreds of thousands of cache-line writes.
Running the scalar :class:`~repro.core.analysis.TetrisScheduler` per write
would put a Python loop on the hot path, so this module re-implements the
two first-fit-decreasing passes as a *column sweep*: the per-line data
units are sorted once (descending), then one loop over the at-most-8 unit
positions updates the bin state of **all** writes simultaneously with
NumPy ufuncs.  The result is bit-for-bit the same ``(result, subresult)``
pair the scalar scheduler produces (property-tested in
``tests/test_batch_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BatchPackResult",
    "pack_batch",
    "relaxed_subslots_batch",
    "service_units_batch",
]


@dataclass(frozen=True)
class BatchPackResult:
    """Per-write packing outcome for a batch of cache-line writes."""

    result: np.ndarray     # (W,) number of write units for write-1s
    subresult: np.ndarray  # (W,) extra sub-write-units for write-0s
    K: int

    def service_units(self) -> np.ndarray:
        """Equation 5 in units of ``t_set``: ``result + subresult/K``."""
        return self.result + self.subresult / self.K

    def service_ns(self, t_set_ns: float) -> np.ndarray:
        return self.service_units() * t_set_ns


def _ffd_pass(
    demand: np.ndarray, capacity: np.ndarray, budget: float
) -> tuple[np.ndarray, np.ndarray]:
    """Exact first-fit-decreasing, one column at a time across all rows.

    ``demand`` is (W, U), already sorted descending per row; zeros are
    skipped.  ``capacity`` is the (W, B) matrix of current already
    committed per bin (mutated in place).  Returns the per-row bin count
    and the per-row bin index chosen for every column (-1 where skipped).
    """
    W, U = demand.shape
    B = capacity.shape[1]
    nbins = np.zeros(W, dtype=np.int64)
    choice = np.full((W, U), -1, dtype=np.int64)
    cols = np.arange(B)
    for t in range(U):
        need = demand[:, t]
        active = need > 0
        if not active.any():
            break
        if float(need.max()) > budget:
            raise ValueError(
                f"burst current {need.max()} exceeds the power budget {budget}"
            )
        open_mask = cols[None, :] < nbins[:, None]
        fits = open_mask & (capacity + need[:, None] <= budget)
        has_fit = fits.any(axis=1) & active
        first = np.argmax(fits, axis=1)

        rows_fit = np.nonzero(has_fit)[0]
        capacity[rows_fit, first[rows_fit]] += need[rows_fit]
        choice[rows_fit, t] = first[rows_fit]

        rows_new = np.nonzero(active & ~has_fit)[0]
        if rows_new.size:
            if int(nbins[rows_new].max()) >= B:
                raise ValueError("bin matrix too small for this demand")
            capacity[rows_new, nbins[rows_new]] += need[rows_new]
            choice[rows_new, t] = nbins[rows_new]
            nbins[rows_new] += 1
    return nbins, choice


def _split_demand(counts: np.ndarray, budget: float, cost: float) -> np.ndarray:
    """Divide oversized bursts into budget-sized chunks (column-expand).

    Input (W, U) per-unit *cell counts*; output (W, U * C) current
    demands, where C = max chunks any burst needs.  The split is
    bit-integral, mirroring the scalar ``TetrisScheduler._chunks``:
    each chunk programs at most ``floor(budget / cost)`` whole cells, so
    the chunk bit counts sum exactly to the demand and no chunk claims
    fractional-cell capacity.  Zero columns are ignored by the packer.
    """
    peak = float(counts.max(initial=0.0)) * cost
    if peak <= budget:
        return counts * cost
    cells_per_chunk = int(budget // cost)
    if cells_per_chunk < 1:
        raise ValueError(f"power budget {budget} below one cell's current {cost}")
    C = int(np.ceil(float(counts.max(initial=0.0)) / cells_per_chunk))
    chunks = [
        np.clip(counts - c * cells_per_chunk, 0.0, cells_per_chunk)
        for c in range(C)
    ]
    return np.concatenate(chunks, axis=1) * cost


def pack_batch(
    n_set: np.ndarray,
    n_reset: np.ndarray,
    *,
    K: int = 8,
    L: float = 2.0,
    power_budget: float = 128.0,
    allow_split: bool = False,
) -> BatchPackResult:
    """Vectorized Algorithm 2: pack many cache-line writes at once.

    Parameters
    ----------
    n_set / n_reset:
        ``(n_writes, units_per_line)`` int matrices from the batch read
        stage.
    K, L, power_budget:
        The chip/bank operating point, as in
        :class:`~repro.core.analysis.TetrisScheduler`.
    allow_split:
        Divide bursts that exceed the budget into chunks (mobile
        division modes); without it such a burst raises ``ValueError``.
    """
    n_set = np.atleast_2d(np.asarray(n_set, dtype=np.int64))
    n_reset = np.atleast_2d(np.asarray(n_reset, dtype=np.int64))
    if n_set.shape != n_reset.shape:
        raise ValueError("n_set / n_reset shape mismatch")
    W, U = n_set.shape

    # ---- write-1 pass: FFD into whole write units --------------------
    in1 = n_set.astype(np.float64)
    if allow_split:
        in1 = _split_demand(n_set.astype(np.float64), power_budget, 1.0)
    in1 = np.sort(in1, axis=1)[:, ::-1]
    wu_used = np.zeros((W, in1.shape[1]), dtype=np.float64)
    result, _ = _ffd_pass(in1, wu_used, power_budget)

    # ---- write-0 pass: first-fit over sub-slots, then extras ---------
    in0 = n_reset.astype(np.float64) * L
    if allow_split:
        in0 = _split_demand(n_reset.astype(np.float64), power_budget, L)
    in0 = np.sort(in0, axis=1)[:, ::-1]
    U1 = wu_used.shape[1]
    U0 = in0.shape[1]
    # Residual occupancy of the result*K interspace sub-slots: slot s of
    # a row belongs to write unit s // K and is valid when s < result*K.
    occ = np.repeat(wu_used, K, axis=1)  # (W, U1*K)
    slot_idx = np.arange(U1 * K)
    valid = slot_idx[None, :] < (result[:, None] * K)

    extra = np.zeros((W, U0), dtype=np.float64)
    n_extra = np.zeros(W, dtype=np.int64)
    extra_cols = np.arange(U0)
    for t in range(U0):
        need = in0[:, t]
        active = need > 0
        if not active.any():
            break
        if float(need.max()) > power_budget:
            raise ValueError(
                f"burst current {need.max()} exceeds the power budget {power_budget}"
            )
        fits_main = valid & (occ + need[:, None] <= power_budget)
        has_main = fits_main.any(axis=1) & active
        first_main = np.argmax(fits_main, axis=1)
        rows_main = np.nonzero(has_main)[0]
        occ[rows_main, first_main[rows_main]] += need[rows_main]

        rest = active & ~has_main
        if rest.any():
            fits_extra = (extra_cols[None, :] < n_extra[:, None]) & (
                extra + need[:, None] <= power_budget
            )
            has_extra = fits_extra.any(axis=1) & rest
            first_extra = np.argmax(fits_extra, axis=1)
            rows_extra = np.nonzero(has_extra)[0]
            extra[rows_extra, first_extra[rows_extra]] += need[rows_extra]

            rows_new = np.nonzero(rest & ~has_extra)[0]
            if rows_new.size:
                extra[rows_new, n_extra[rows_new]] += need[rows_new]
                n_extra[rows_new] += 1

    return BatchPackResult(result=result, subresult=n_extra, K=K)


def relaxed_subslots_batch(
    n_set: np.ndarray,
    n_reset: np.ndarray,
    *,
    K: int = 8,
    L: float = 2.0,
    power_budget: float = 128.0,
) -> np.ndarray:
    """Unaligned Algorithm 2 (``tetris_relaxed``) for many writes at once.

    The batch form of :class:`~repro.core.generalized.GeneralizedScheduler`
    with SLC's two burst classes: write-1 bursts hold ``K`` sub-slots at
    1 current per cell, write-0 bursts one sub-slot at ``L`` per cell;
    oversized bursts split into budget-sized chunks.  Bursts go longest
    first, then largest first, each to the earliest sub-slot offset whose
    whole span has headroom; one column sweep places the t-th burst of
    every write together.  Returns the per-write occupied sub-slot count
    (completion in ``t_set / K`` units).
    """
    n_set = np.atleast_2d(np.asarray(n_set, dtype=np.int64))
    n_reset = np.atleast_2d(np.asarray(n_reset, dtype=np.int64))
    if n_set.shape != n_reset.shape:
        raise ValueError("n_set / n_reset shape mismatch")
    in1 = _split_demand(n_set.astype(np.float64), power_budget, 1.0)
    in0 = _split_demand(n_reset.astype(np.float64), power_budget, L)
    if K == 1:
        # Equal durations: the two classes interleave by current alone.
        phases = [(np.concatenate([in1, in0], axis=1), 1)]
    else:
        phases = [(in1, K), (in0, 1)]

    W = n_set.shape[0]
    width = in1.shape[1] * K + in0.shape[1]
    occ = np.zeros((W, width + K), dtype=np.float64)
    n_occ = np.zeros(W, dtype=np.int64)
    limit = power_budget + 1e-12  # GeneralizedScheduler's fit tolerance
    for demand, span in phases:
        demand = np.sort(demand, axis=1)[:, ::-1]
        for t in range(demand.shape[1]):
            need = demand[:, t]
            active = need > 0
            if not active.any():
                break
            # Peak occupancy of the span starting at every offset below
            # the longest timeline (slots past a row's end are empty).
            top = int(n_occ.max())
            peak = occ[:, :top].copy()
            for d in range(1, span):
                np.maximum(peak, occ[:, d : d + top], out=peak)
            fits = (peak + need[:, None] <= limit) & (
                np.arange(top)[None, :] < n_occ[:, None]
            )
            start = n_occ.copy()
            if top:
                found = fits.any(axis=1)
                start[found] = np.argmax(fits, axis=1)[found]
            cols = np.arange(top + span)
            hit = (
                active[:, None]
                & (cols[None, :] >= start[:, None])
                & (cols[None, :] < start[:, None] + span)
            )
            window = occ[:, : top + span]
            window[hit] = (window + need[:, None])[hit]
            n_occ = np.where(active, np.maximum(n_occ, start + span), n_occ)
    return n_occ


def service_units_batch(
    n_set: np.ndarray,
    n_reset: np.ndarray,
    *,
    K: int = 8,
    L: float = 2.0,
    power_budget: float = 128.0,
) -> np.ndarray:
    """Shortcut returning only Equation 5's per-write unit counts."""
    return pack_batch(
        n_set, n_reset, K=K, L=L, power_budget=power_budget
    ).service_units()
