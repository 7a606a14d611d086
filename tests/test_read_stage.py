"""Tests for Algorithm 1 (read stage): flip decision and 0/1 counting."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.read_stage import read_stage

u64 = st.integers(min_value=0, max_value=(1 << 64) - 1)
_MASK = (1 << 64) - 1


def _stage(old, flip, new, **kw):
    return read_stage(
        np.array([old], dtype=np.uint64),
        np.array([flip]),
        np.array([new], dtype=np.uint64),
        **kw,
    )


class TestFlipDecision:
    def test_no_change_means_no_programs(self):
        rs = _stage(0xABCD, False, 0xABCD)
        assert rs.total_bit_writes == 0
        assert not rs.flip[0]

    def test_few_changes_no_flip(self):
        rs = _stage(0b0000, False, 0b0111)
        assert not rs.flip[0]
        assert int(rs.n_set[0]) == 3
        assert int(rs.n_reset[0]) == 0

    def test_inverting_write_flips(self):
        # All 64 bits would change -> store the complement instead.
        rs = _stage(0, False, _MASK)
        assert rs.flip[0]
        assert int(rs.physical[0]) == 0          # stored image unchanged
        assert rs.total_bit_writes == 0          # only the tag cell changes

    def test_exactly_half_changes_does_not_flip(self):
        # 32 changed bits + clean tag = distance 32 <= threshold.
        new = (1 << 32) - 1
        rs = _stage(0, False, new)
        assert not rs.flip[0]
        assert int(rs.n_set[0]) == 32

    def test_33_changes_flips(self):
        new = (1 << 33) - 1
        rs = _stage(0, False, new)
        assert rs.flip[0]
        # Flipped store: ~new vs old=0 -> programs 64-33=31 cells.
        assert rs.total_bit_writes == 31

    def test_stored_flip_tag_participates(self):
        # Old stored inverted; writing back the same logical value with a
        # straight encoding would change every cell.
        old_logical = 0x1234
        old_physical = ~old_logical & _MASK
        rs = _stage(old_physical, True, old_logical)
        assert rs.flip[0]                         # stays inverted
        assert rs.total_bit_writes == 0

    def test_logical_value_always_recoverable(self):
        rs = _stage(0xFF, False, 0xF0F0)
        stored = int(rs.physical[0])
        logical = ~stored & _MASK if rs.flip[0] else stored
        assert logical == 0xF0F0


class TestCounts:
    def test_set_and_reset_split(self):
        rs = _stage(0b1100, False, 0b1010)
        assert int(rs.n_set[0]) == 1
        assert int(rs.n_reset[0]) == 1

    def test_counts_are_post_flip(self):
        # 40 SETs requested -> flip -> only the 24 high cells of the
        # complement image need programming (0 -> 1).
        new = (1 << 40) - 1
        rs = _stage(0, False, new)
        assert rs.flip[0]
        assert int(rs.n_set[0]) == 24
        assert int(rs.n_reset[0]) == 0
        assert rs.total_bit_writes == 24

    def test_count_flip_bit_option(self):
        rs = _stage(0, False, _MASK, count_flip_bit=True)
        # Data cells unchanged, tag cell programmed 0 -> 1: one SET.
        assert int(rs.n_set[0]) == 1
        assert int(rs.n_reset[0]) == 0


class TestInvariants:
    @given(u64, st.booleans(), u64)
    def test_never_programs_more_than_half(self, old_phys, old_flip, new):
        rs = _stage(old_phys, old_flip, new)
        assert rs.total_bit_writes <= 32

    @given(u64, st.booleans(), u64)
    def test_flip_choice_is_optimal(self, old_phys, old_flip, new):
        """The chosen encoding never programs more cells (incl. tag) than
        the rejected one."""
        rs = _stage(old_phys, old_flip, new)
        straight_cost = (old_phys ^ new).bit_count() + (1 if old_flip else 0)
        flipped_cost = (old_phys ^ ~new & _MASK).bit_count() + (0 if old_flip else 1)
        chosen = flipped_cost if rs.flip[0] else straight_cost
        assert chosen <= min(straight_cost, flipped_cost)

    @given(u64, st.booleans(), u64)
    def test_sets_and_resets_recover_new_physical(self, old_phys, old_flip, new):
        rs = _stage(old_phys, old_flip, new)
        stored = int(rs.physical[0])
        sets = ~old_phys & stored & _MASK
        resets = old_phys & ~stored & _MASK
        assert sets.bit_count() == int(rs.n_set[0])
        assert resets.bit_count() == int(rs.n_reset[0])
        assert (old_phys | sets) & ~resets & _MASK == stored


class TestValidation:
    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            read_stage(
                np.zeros(2, dtype=np.uint64),
                np.zeros(3, dtype=bool),
                np.zeros(2, dtype=np.uint64),
            )

    def test_narrow_unit_bits(self):
        rs = _stage(0x0000, False, 0xFFFF, unit_bits=16)
        assert rs.flip[0]
        assert rs.total_bit_writes == 0


class TestBatch:
    @given(
        st.lists(st.tuples(u64, st.booleans(), u64), min_size=1, max_size=20)
    )
    def test_batch_matches_scalar(self, rows):
        old = np.array([r[0] for r in rows], dtype=np.uint64).reshape(-1, 1)
        flip = np.array([r[1] for r in rows]).reshape(-1, 1)
        new = np.array([r[2] for r in rows], dtype=np.uint64).reshape(-1, 1)
        batch = read_stage(old, flip, new)
        for i, (o, f, n) in enumerate(rows):
            single = _stage(o, f, n)
            assert batch.flip[i, 0] == single.flip[0]
            assert batch.physical[i, 0] == single.physical[0]
            assert batch.n_set[i, 0] == single.n_set[0]
            assert batch.n_reset[i, 0] == single.n_reset[0]
