"""The vectorized packers must agree with their scalar references.

This is the load-bearing equivalence of the fast experiment path: the
(result, subresult) pair from :func:`repro.core.batch.pack_batch` must be
bit-for-bit what the scalar scheduler produces for every row, and the
unaligned packer :func:`repro.core.batch.relaxed_subslots_batch` must
place exactly as many sub-slots as ``GeneralizedScheduler`` and the
oracle's independent earliest-fit packer.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.analysis import TetrisScheduler
from repro.core.batch import pack_batch, relaxed_subslots_batch, service_units_batch
from repro.core.generalized import BurstClass, GeneralizedScheduler
from repro.oracle import analytic

counts_matrix = st.lists(
    st.lists(st.integers(min_value=0, max_value=32), min_size=8, max_size=8),
    min_size=1,
    max_size=12,
)


def scalar_pack(n_set, n_reset, K=8, L=2.0, budget=128.0, allow_split=False):
    sched = TetrisScheduler(K, L, budget, allow_split=allow_split).schedule(
        np.array(n_set), np.array(n_reset)
    )
    return sched.result, sched.subresult


class TestEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(counts_matrix, counts_matrix)
    def test_matches_scalar_default_operating_point(self, m_set, m_reset):
        n = min(len(m_set), len(m_reset))
        n_set = np.array(m_set[:n])
        n_reset = np.array(m_reset[:n])
        packed = pack_batch(n_set, n_reset)
        for i in range(n):
            r, s = scalar_pack(n_set[i], n_reset[i])
            assert packed.result[i] == r, f"row {i}: result mismatch"
            assert packed.subresult[i] == s, f"row {i}: subresult mismatch"

    @settings(max_examples=60, deadline=None)
    @given(
        counts_matrix,
        st.integers(min_value=1, max_value=16),
        st.floats(min_value=1.0, max_value=4.0),
        st.sampled_from([70.0, 100.0, 128.0, 200.0]),
    )
    def test_matches_scalar_across_operating_points(self, m, K, L, budget):
        n_set = np.array(m)
        n_reset = np.array(m[::-1])
        packed = pack_batch(n_set, n_reset, K=K, L=L, power_budget=budget, allow_split=True)
        for i in range(len(m)):
            r, s = scalar_pack(
                n_set[i], n_reset[i], K=K, L=L, budget=budget, allow_split=True
            )
            assert packed.result[i] == r
            assert packed.subresult[i] == s

    @settings(max_examples=60, deadline=None)
    @given(counts_matrix)
    def test_split_mode_matches_scalar_small_budget(self, m):
        n_set = np.array(m)
        n_reset = np.zeros_like(n_set)
        packed = pack_batch(n_set, n_reset, power_budget=16.0, allow_split=True)
        for i in range(len(m)):
            r, s = scalar_pack(n_set[i], n_reset[i], budget=16.0, allow_split=True)
            assert packed.result[i] == r
            assert packed.subresult[i] == s

    @settings(max_examples=60, deadline=None)
    @given(
        counts_matrix,
        st.sampled_from([(5.0, 2.0), (5.5, 1.5), (4.0, 1.5), (9.0, 3.0)]),
    )
    def test_split_mode_fractional_budget_cost_ratios(self, m, point):
        """Budget/cost pairs that do not divide evenly: the bit-integral
        split (floor(budget/cost) whole cells per chunk) must agree
        between the scalar and vectorized packers.  These ratios are the
        ones the pre-fix current-sliced split got wrong (see
        tests/fixtures/oracle/chunk_split_*.json)."""
        budget, L = point
        n_set = np.array(m)
        n_reset = np.array(m[::-1])
        packed = pack_batch(
            n_set, n_reset, L=L, power_budget=budget, allow_split=True
        )
        for i in range(len(m)):
            r, s = scalar_pack(
                n_set[i], n_reset[i], L=L, budget=budget, allow_split=True
            )
            assert packed.result[i] == r, f"row {i}: result mismatch"
            assert packed.subresult[i] == s, f"row {i}: subresult mismatch"


def relaxed_references(n_set, n_reset, K, L, budget):
    """(GeneralizedScheduler, oracle) sub-slot counts for one write."""
    sched = GeneralizedScheduler(budget, 1.0).schedule({
        BurstClass("write1", K, 1.0): np.asarray(n_set),
        BurstClass("write0", 1, L): np.asarray(n_reset),
    })
    point = analytic.OperatingPoint(K=K, L=L, budget=budget)
    oracle = analytic.tetris_relaxed_subslots(list(n_set), list(n_reset), point)
    return sched.total_subslots, oracle


class TestRelaxedEquivalence:
    def _check(self, n_set, n_reset, K=8, L=2.0, budget=128.0):
        n_set, n_reset = np.asarray(n_set), np.asarray(n_reset)
        got = relaxed_subslots_batch(n_set, n_reset, K=K, L=L, power_budget=budget)
        for i in range(len(n_set)):
            sched, oracle = relaxed_references(n_set[i], n_reset[i], K, L, budget)
            assert got[i] == sched == oracle, f"row {i}: {got[i]} {sched} {oracle}"

    @settings(max_examples=100, deadline=None)
    @given(
        counts_matrix,
        counts_matrix,
        st.sampled_from([17.0, 40.0, 64.0, 128.0]),
        st.sampled_from([2.0, 3.0]),
    )
    def test_matches_references_across_budgets(self, m_set, m_reset, budget, L):
        n = min(len(m_set), len(m_reset))
        self._check(m_set[:n], m_reset[:n], L=L, budget=budget)

    @settings(max_examples=60, deadline=None)
    @given(
        counts_matrix,
        st.integers(min_value=1, max_value=16),
        st.sampled_from([(6.5, 1.5), (9.0, 3.0), (12.0, 2.0), (128.0, 2.0)]),
    )
    def test_matches_references_across_k(self, m, K, point):
        budget, L = point
        self._check(m, m[::-1], K=K, L=L, budget=budget)

    @pytest.mark.parametrize("budget", [17.0, 40.0, 64.0, 128.0])
    @pytest.mark.parametrize("L", [2.0, 3.0])
    def test_adversarial_rows(self, budget, L):
        zero, full = [0] * 8, [32] * 8
        rows = [
            (zero, zero),                       # silent write
            (full, zero),                       # all-maximum SET
            (zero, full),                       # all-maximum RESET
            (full, full),                       # both passes at maximum
            ([32] + [0] * 7, [0] * 7 + [32]),   # one burst per pass
            ([1] * 8, [31] * 8),                # many small bursts
        ]
        self._check([r[0] for r in rows], [r[1] for r in rows], L=L, budget=budget)

    def test_burst_chunking_beyond_the_budget(self):
        # 32 cells at L = 3 draw 96, six times a budget of 17: every
        # burst splits into five-cell chunks.
        self._check([[32] * 8, [7] * 8], [[32] * 8, [0] * 8], L=3.0, budget=17.0)

    def test_scheme_prices_a_trace_like_its_per_write_schedule(self):
        from repro.config import default_config
        from repro.schemes import get_scheme

        cfg = default_config()
        scheme = get_scheme("tetris_relaxed", cfg)
        rng = np.random.default_rng(5)
        n_set = rng.integers(0, 17, size=(40, 8))
        n_reset = rng.integers(0, 17, size=(40, 8))
        units = relaxed_subslots_batch(n_set, n_reset) / cfg.K
        expected = [
            scheme.service_units_for_counts(n_set[i], n_reset[i]) for i in range(40)
        ]
        assert units.tolist() == expected

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            relaxed_subslots_batch(np.zeros((2, 8)), np.zeros((3, 8)))


class TestBatchAPI:
    def test_single_row_shapes(self):
        packed = pack_batch([1, 2, 3, 0, 0, 0, 0, 0], [0] * 8)
        assert packed.result.shape == (1,)
        assert packed.subresult.shape == (1,)

    def test_service_units_shortcut(self):
        n_set = np.array([[16] * 8])
        units = service_units_batch(n_set, np.zeros_like(n_set))
        assert units[0] == pytest.approx(1.0)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            pack_batch(np.zeros((2, 8)), np.zeros((3, 8)))

    def test_overflow_without_split_raises(self):
        with pytest.raises(ValueError):
            pack_batch([[40] + [0] * 7], [[0] * 8], power_budget=32.0)

    def test_write0_overflow_without_split_raises(self):
        with pytest.raises(ValueError):
            pack_batch([[0] * 8], [[30] + [0] * 7], power_budget=32.0)

    def test_service_ns(self):
        packed = pack_batch([[16] * 8], [[0] * 8])
        assert packed.service_ns(430.0)[0] == pytest.approx(430.0)


class TestBatchPerformance:
    def test_large_batch_runs(self):
        rng = np.random.default_rng(0)
        n_set = rng.poisson(6.7, size=(5000, 8))
        n_reset = rng.poisson(2.9, size=(5000, 8))
        units = service_units_batch(n_set, n_reset)
        assert units.shape == (5000,)
        assert (units >= 0).all()
        # The paper's average regime: close to one write unit.
        assert 0.9 < units.mean() < 1.5
