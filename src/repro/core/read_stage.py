"""Stage 1 of Tetris Write: read-before-write, flip decision, 0/1 counting.

Implements the paper's Algorithm 1.  The stored image of a data unit is a
pair ``(D', F')`` of physical cell contents and a flip tag; the logical
value is ``D' ^ (F' ? ~0 : 0)``.  Given new logical data ``D`` we choose
the physical encoding ``(D, 0)`` or ``(~D, 1)`` that minimizes the Hamming
distance to the stored physical image — i.e. the number of cells that must
actually be programmed.  After the choice, ``N1`` counts cells going
0 -> 1 (SET / write-1) and ``N0`` counts cells going 1 -> 0 (RESET /
write-0); those two vectors are all the analysis stage needs.

Everything is elementwise over data units, so one call handles a cache
line's units or a whole trace's ``(n_writes, units)`` payload matrix.
:func:`read_stage_reference` is a pure-Python, bit-identical rendering of
the same rule that tests and the CI kernel gate compare against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ReadStageResult",
    "read_stage",
    "read_stage_reference",
    "cost_aware_flip",
]

_U64 = np.uint64
_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)


@dataclass(frozen=True)
class ReadStageResult:
    """Per-data-unit outcome of the read stage.

    Attributes
    ----------
    flip:
        Boolean per unit — whether the new data is stored inverted.
    physical:
        The uint64 cell image that will be stored (already inverted where
        ``flip`` is set).
    n_set:
        Number of write-1 (SET) cell programs required per unit.
    n_reset:
        Number of write-0 (RESET) cell programs required per unit.
    """

    flip: np.ndarray
    physical: np.ndarray
    n_set: np.ndarray
    n_reset: np.ndarray

    @property
    def total_bit_writes(self) -> int:
        """Total programmed cells across the line (Fig 3's quantity)."""
        return int(self.n_set.sum() + self.n_reset.sum())


def read_stage(
    old_physical: np.ndarray,
    old_flip: np.ndarray,
    new_logical: np.ndarray,
    *,
    unit_bits: int = 64,
    count_flip_bit: bool = False,
) -> ReadStageResult:
    """Run Algorithm 1 elementwise over data units.

    The three inputs may have any matching shape: ``(units,)`` for one
    cache line, or ``(n_writes, units)`` for a whole trace's payload
    matrix in one set of ufunc passes.  Every result array has the
    input's shape.

    Parameters
    ----------
    old_physical:
        Stored cell contents per unit (uint64 array).
    old_flip:
        Stored flip tags per unit (bool array).
    new_logical:
        New logical data per unit (uint64 array).
    unit_bits:
        Width of a data unit; the flip threshold is ``unit_bits / 2``.
    count_flip_bit:
        When true, a change of the flip-tag cell itself is charged as one
        extra RESET/SET.  The paper ignores this cost; we keep it as an
        option for sensitivity analysis.

    Notes
    -----
    The flip rule follows Algorithm 1 line 3: flip iff the Hamming
    distance between ``{D, 0}`` and ``{D', F'}`` exceeds ``N/2`` — i.e.
    the *straight* encoding is compared against the threshold and the
    flipped encoding is used when straight would program more than half
    the cells.  This guarantees at most ``N/2`` (+ flip bit) programs.
    """
    old_physical = np.atleast_1d(np.asarray(old_physical, dtype=_U64))
    new_logical = np.atleast_1d(np.asarray(new_logical, dtype=_U64))
    old_flip = np.atleast_1d(np.asarray(old_flip, dtype=bool))
    if not (old_physical.shape == new_logical.shape == old_flip.shape):
        raise ValueError("old/new/flip arrays must have matching shapes")

    mask = _ONES if unit_bits == 64 else _U64((1 << unit_bits) - 1)

    straight = new_logical & mask  # encode as (D, 0)
    flipped = ~new_logical & mask  # encode as (~D, 1)
    old_physical = old_physical & mask

    # Algorithm 1 includes the flip-tag cell in the Hamming comparison:
    # {D, 0} vs {D', F'} differs in the tag iff F' = 1.  Because the
    # straight and flipped encodings differ in every one of the N+1 cells,
    # dist_straight + dist_flipped = N + 1, so flipping whenever
    # dist_straight exceeds (N+1)/2 always picks the cheaper encoding.
    dist_straight = (
        np.bitwise_count(old_physical ^ straight).astype(np.int64)
        + old_flip.astype(np.int64)
    )

    flip = dist_straight > (unit_bits + 1) // 2
    physical = np.where(flip, flipped, straight)

    n_set = np.bitwise_count(~old_physical & physical & mask).astype(np.int64)
    n_reset = np.bitwise_count(old_physical & ~physical).astype(np.int64)

    if count_flip_bit:
        tag_changed = flip != old_flip
        # Programming the tag cell to 1 is a SET, to 0 a RESET.
        n_set = n_set + (tag_changed & flip).astype(np.int64)
        n_reset = n_reset + (tag_changed & ~flip).astype(np.int64)

    # Invariant check (cheap): post-flip program count never exceeds half
    # the unit width plus the tag cell.
    assert int((n_set + n_reset).max(initial=0)) <= unit_bits // 2 + 1, (
        "flip rule violated: more than half the cells would be programmed"
    )
    return ReadStageResult(flip=flip, physical=physical, n_set=n_set, n_reset=n_reset)


def read_stage_reference(
    old_physical: np.ndarray,
    old_flip: np.ndarray,
    new_logical: np.ndarray,
    *,
    unit_bits: int = 64,
    count_flip_bit: bool = False,
) -> ReadStageResult:
    """Pure-Python Algorithm 1 over a 1-D array of data units.

    Works on builtin ints, one unit at a time, and must stay
    bit-identical to :func:`read_stage`.  Tests and the CI kernel gate
    compare against it; no production path calls it.
    """
    mask = (1 << unit_bits) - 1
    threshold = (unit_bits + 1) // 2
    n = len(old_physical)
    flip = np.zeros(n, dtype=bool)
    physical = np.zeros(n, dtype=_U64)
    n_set = np.zeros(n, dtype=np.int64)
    n_reset = np.zeros(n, dtype=np.int64)
    for i in range(n):
        old = int(old_physical[i]) & mask
        straight = int(new_logical[i]) & mask
        flipped = straight ^ mask
        tag = bool(old_flip[i])
        dist_straight = (old ^ straight).bit_count() + int(tag)
        f = dist_straight > threshold
        phys = flipped if f else straight
        diff = old ^ phys
        ns = (diff & phys).bit_count()
        nr = (diff & old).bit_count()
        if count_flip_bit and f != tag:
            if f:
                ns += 1
            else:
                nr += 1
        flip[i] = f
        physical[i] = phys
        n_set[i] = ns
        n_reset[i] = nr
    assert int((n_set + n_reset).max(initial=0)) <= unit_bits // 2 + 1, (
        "flip rule violated: more than half the cells would be programmed"
    )
    return ReadStageResult(flip=flip, physical=physical, n_set=n_set, n_reset=n_reset)


def cost_aware_flip(
    old_physical: np.ndarray,
    old_flip: np.ndarray,
    new_logical: np.ndarray,
    *,
    set_cost: float = 430.0,
    reset_cost: float = 106.0,
    unit_bits: int = 64,
    max_programs: int | None = None,
    charge_tag: bool = True,
) -> ReadStageResult:
    """CAFO-style flip (Maddah et al., HPCA 2015 — the paper's ref [22]).

    Plain Flip-N-Write minimizes the *count* of programmed cells; with
    asymmetric per-cell costs that is not the cheapest encoding — a SET
    costs ~4x a RESET in energy at the paper's operating point.  This
    variant picks, per unit, the encoding minimizing
    ``set_cost * n_set + reset_cost * n_reset`` (ties go to the straight
    encoding).  With equal costs it reduces to the standard flip rule up
    to tie handling.

    ``max_programs`` (typically ``unit_bits // 2``) keeps schemes whose
    *timing/power guarantee* rests on the count bound safe: an encoding
    programming more cells than the bound is infeasible even when it is
    energy-cheaper, because cheap RESETs still draw double current.
    With the bound set, exactly one encoding can exceed it (the two
    program counts sum to ``unit_bits + 1``), so a feasible choice
    always exists.

    ``charge_tag=False`` drops the flip-tag program from the objective
    (the WIRE encoding's rule: the flag cell lives in a cheap side
    structure, so only data-cell transitions are priced).  The reported
    ``n_set`` / ``n_reset`` never include the tag either way — that is
    :func:`read_stage`'s ``count_flip_bit`` knob.

    Returns the same :class:`ReadStageResult` shape as
    :func:`read_stage`, so it drops into any flip-family scheme.
    """
    old_physical = np.atleast_1d(np.asarray(old_physical, dtype=_U64))
    new_logical = np.atleast_1d(np.asarray(new_logical, dtype=_U64))
    old_flip = np.atleast_1d(np.asarray(old_flip, dtype=bool))
    mask = _ONES if unit_bits == 64 else _U64((1 << unit_bits) - 1)

    straight = new_logical & mask
    flipped = ~new_logical & mask
    old_physical = old_physical & mask

    def cost_of(candidate: np.ndarray, tag: np.ndarray) -> np.ndarray:
        n_set = np.bitwise_count(~old_physical & candidate & mask)
        n_reset = np.bitwise_count(old_physical & ~candidate)
        data_cost = n_set * set_cost + n_reset * reset_cost
        if not charge_tag:
            return data_cost
        tag_changed = tag != old_flip
        tag_cost = np.where(
            tag_changed, np.where(tag, set_cost, reset_cost), 0.0
        )
        return data_cost + tag_cost

    ones = np.ones(straight.shape, dtype=bool)
    cost_straight = cost_of(straight, ~ones)
    cost_flipped = cost_of(flipped, ones)

    flip = cost_flipped < cost_straight
    if max_programs is not None:
        progs_straight = np.bitwise_count(old_physical ^ straight).astype(np.int64)
        progs_flipped = np.bitwise_count(old_physical ^ flipped).astype(np.int64)
        # Override the cost choice where it breaks the count bound.
        flip = np.where(progs_flipped > max_programs, False, flip)
        flip = np.where(progs_straight > max_programs, True, flip)
    physical = np.where(flip, flipped, straight)
    n_set = np.bitwise_count(~old_physical & physical & mask).astype(np.int64)
    n_reset = np.bitwise_count(old_physical & ~physical).astype(np.int64)
    return ReadStageResult(flip=flip, physical=physical, n_set=n_set, n_reset=n_reset)
