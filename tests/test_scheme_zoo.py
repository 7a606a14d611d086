"""Scheme zoo (ISSUE 10): WIRE / DATACON / PALP behavior and routing.

Covers the cross-paper schemes' headline guarantees at unit level —
WIRE's energy dominance over Flip-N-Write, DATACON's dirty-unit
counting, PALP's min-of-two-plans packing — plus PALP on the analytic
fastpath lane, priced from the write-service table both lanes share.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import default_config
from repro.fastpath import classify
from repro.oracle import analytic
from repro.parallel import ResultCache, SweepEngine
from repro.pcm.state import LineState
from repro.schemes import SCHEME_REGISTRY, ZOO_SCHEMES, get_scheme
from repro.trace.workloads import WORKLOAD_NAMES

T_READ, T_RESET, T_SET = 50.0, 53.0, 430.0
REQUESTS = 250

ALL_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)


@pytest.fixture
def cfg():
    return default_config()


def _random_line(rng, units=8):
    physical = rng.integers(0, 2**64, size=units, dtype=np.uint64)
    flip = rng.integers(0, 2, size=units).astype(bool)
    new = rng.integers(0, 2**64, size=units, dtype=np.uint64)
    return physical, flip, new


class TestZooRegistry:
    def test_zoo_schemes_registered(self):
        for name in ZOO_SCHEMES:
            assert name in SCHEME_REGISTRY

    def test_registry_has_eleven_schemes(self):
        assert len(SCHEME_REGISTRY) == 11

    def test_zoo_analytic_coverage(self, cfg):
        point = analytic.OperatingPoint.from_config(cfg)
        for name in ZOO_SCHEMES:
            scheme = get_scheme(name, cfg)
            assert analytic.worst_case_units(name, point) == pytest.approx(
                scheme.worst_case_units()
            )


class TestWIRE:
    def test_units_are_fnw_constant(self, cfg):
        rng = np.random.default_rng(7)
        for _ in range(10):
            physical, flip, new = _random_line(rng)
            out = get_scheme("wire", cfg).write(
                LineState(physical=physical, flip=flip), new
            )
            assert out.units == 4.0
            assert out.service_ns == pytest.approx(T_READ + 4 * T_SET)

    def test_energy_never_exceeds_fnw(self, cfg):
        rng = np.random.default_rng(11)
        for _ in range(200):
            physical, flip, new = _random_line(rng)
            outs = {
                n: get_scheme(n, cfg).write(
                    LineState(physical=physical.copy(), flip=flip.copy()), new
                )
                for n in ("wire", "flip_n_write")
            }
            assert outs["wire"].energy <= outs["flip_n_write"].energy + 1e-9

    def test_cost_choice_beats_count_choice_strictly(self, cfg):
        # 32/32 count tie where the straight encoding is 32 SETs but the
        # inverted one is 32 RESETs: FNW's count rule keeps straight
        # (not > N/2), WIRE's cost rule flips and pays ~4x less.
        old = np.zeros(8, dtype=np.uint64)
        old[0] = np.uint64(0xFFFF_FFFF_0000_0000)
        new = old.copy()
        new[0] = ALL_ONES
        outs = {
            n: get_scheme(n, cfg).write(LineState.from_logical(old.copy()), new)
            for n in ("wire", "flip_n_write")
        }
        em = get_scheme("wire", cfg).energy_model
        assert outs["flip_n_write"].flipped_units == 0
        assert outs["flip_n_write"].n_set == 32
        assert outs["wire"].flipped_units == 1
        assert outs["wire"].n_reset == 32 and outs["wire"].n_set == 0
        assert outs["wire"].energy == pytest.approx(
            32 * em.e_reset + em.read_energy_per_line
        )
        assert outs["wire"].energy < outs["flip_n_write"].energy

    def test_logical_roundtrip(self, cfg):
        rng = np.random.default_rng(3)
        physical, flip, new = _random_line(rng)
        state = LineState(physical=physical, flip=flip)
        get_scheme("wire", cfg).write(state, new)
        assert np.array_equal(state.logical, new)


class TestDATACON:
    def test_dirty_unit_counting(self, cfg, rng):
        old = rng.integers(0, 2**64, size=8, dtype=np.uint64)
        new = old.copy()
        new[0] ^= np.uint64(0b111)
        new[5] ^= np.uint64(0xFF << 10)
        out = get_scheme("datacon", cfg).write(LineState.from_logical(old), new)
        assert out.units == 2.0  # two dirty units, one t_set share each
        assert out.service_ns == pytest.approx(T_READ + 2 * T_SET)
        assert out.n_set + out.n_reset == 11

    def test_silent_write_has_zero_write_stage(self, cfg, rng):
        data = rng.integers(0, 2**64, size=8, dtype=np.uint64)
        out = get_scheme("datacon", cfg).write(LineState.from_logical(data), data)
        assert out.units == 0.0
        assert out.service_ns == pytest.approx(T_READ)

    def test_fully_dirty_line_is_conventional(self, cfg):
        old = np.zeros(8, dtype=np.uint64)
        new = np.full(8, ALL_ONES, dtype=np.uint64)
        out = get_scheme("datacon", cfg).write(LineState.from_logical(old), new)
        assert out.units == 8.0  # Eq. 1's constant
        assert out.n_set == 8 * 64

    def test_normalizes_flipped_leftovers(self, cfg, rng):
        # Writing through a flip-capable scheme's leftover inverted unit:
        # DATACON compares logical views, stores plain.
        physical, _, new = _random_line(rng)
        flip = np.zeros(8, dtype=bool)
        flip[2] = True
        state = LineState(physical=physical, flip=flip)
        get_scheme("datacon", cfg).write(state, new)
        assert np.array_equal(state.logical, new)
        assert not state.flip.any()

    def test_units_bounded_by_conventional_at_mobile_point(self):
        # write_units=4 < data_units=8: each dirty unit costs half a
        # write unit, so even 8 dirty units stay at Eq. 1's 4.
        point = analytic.OperatingPoint(write_units=4, data_units=8)
        full = analytic.datacon_units([1] * 8, [0] * 8, point)
        assert full == pytest.approx(4.0)
        assert analytic.datacon_units([0, 3], [1, 0], point) == pytest.approx(1.0)


class TestPALP:
    def test_never_worse_than_tetris(self, cfg):
        rng = np.random.default_rng(17)
        for _ in range(100):
            physical, flip, new = _random_line(rng)
            outs = {
                n: get_scheme(n, cfg).write(
                    LineState(physical=physical.copy(), flip=flip.copy()), new
                )
                for n in ("palp", "tetris")
            }
            assert outs["palp"].units <= outs["tetris"].units + 1e-9
            assert outs["palp"].service_ns <= outs["tetris"].service_ns + 1e-9

    def test_silent_write(self, cfg, rng):
        data = rng.integers(0, 2**64, size=8, dtype=np.uint64)
        out = get_scheme("palp", cfg).write(LineState.from_logical(data), data)
        assert out.units == 0.0
        assert out.service_ns == pytest.approx(T_READ + cfg.analysis_overhead_ns)

    def test_partition_count_validation(self, cfg):
        with pytest.raises(ValueError):
            get_scheme("palp", cfg, partitions=0)

    def test_more_partitions_still_bounded_by_serial(self, cfg):
        rng = np.random.default_rng(23)
        tetris = get_scheme("tetris", cfg)
        palp4 = get_scheme("palp", cfg, partitions=4)
        for _ in range(50):
            physical, flip, new = _random_line(rng)
            t = tetris.write(LineState(physical=physical.copy(), flip=flip.copy()), new)
            p = palp4.write(LineState(physical=physical.copy(), flip=flip.copy()), new)
            assert p.units <= t.units + 1e-9

    def test_infeasible_sub_budget_falls_back_to_serial(self, cfg):
        # budget/partitions below one RESET's current: only the serial
        # plan exists, so PALP degenerates to Tetris exactly.
        scheme = get_scheme("palp", cfg, partitions=256)
        assert not scheme.partition_feasible
        rng = np.random.default_rng(29)
        physical, flip, new = _random_line(rng)
        p = scheme.write(LineState(physical=physical.copy(), flip=flip.copy()), new)
        t = get_scheme("tetris", cfg).write(
            LineState(physical=physical.copy(), flip=flip.copy()), new
        )
        assert p.units == pytest.approx(t.units)

    def test_analytic_matches_scheme_with_nondefault_partitions(self, cfg):
        point = analytic.OperatingPoint.from_config(cfg)
        rng = np.random.default_rng(31)
        scheme = get_scheme("palp", cfg, partitions=4)
        for _ in range(25):
            n_set = rng.integers(0, 17, size=8)
            n_reset = rng.integers(0, 32 - n_set.max() + 1, size=8)
            expected = analytic.palp_units(
                n_set.tolist(), n_reset.tolist(), point, partitions=4
            )
            got = min(
                scheme.serial_scheduler.schedule(n_set, n_reset).service_units(),
                scheme._partitioned_units(n_set, n_reset),
            )
            assert got == pytest.approx(expected)


class TestPALPFastpath:
    """PALP is priced from the shared write-service table like every
    other scheme, so it runs on the analytic lane."""

    def test_palp_classifies_inside(self):
        decision = classify(default_config(), "palp")
        assert decision.inside
        assert decision.reasons == ()

    def test_force_prices_palp_analytically(self):
        eng = SweepEngine(
            requests_per_core=REQUESTS, cache=False, fastpath="force",
            recheck_fraction=0.0,
        )
        res = eng.run(("palp",), ("dedup",))
        res.raise_errors()
        assert res.stats.fastpath_cells == 1
        assert res.rows[0].events == 0  # analytically priced

    def test_auto_prices_palp_on_the_fastpath(self, tmp_path):
        cache = ResultCache(tmp_path / "store")
        eng = SweepEngine(
            requests_per_core=REQUESTS, cache=cache, fastpath="auto",
            recheck_fraction=0.0,
        )
        res = eng.run(("palp", "wire"), ("dedup",))
        res.raise_errors()
        assert res.stats.cells == 2
        assert res.stats.des_cells == 0
        assert res.stats.fastpath_cells == 2
        assert all(c["lane"] == "fastpath" and c["reasons"] == []
                   for c in res.certificate["cells"])
        assert cache.report()["by_lane"] == {"fastpath": 2}
        res2 = SweepEngine(
            requests_per_core=REQUESTS, cache=cache, fastpath="auto",
            recheck_fraction=0.0,
        ).run(("palp", "wire"), ("dedup",))
        res2.raise_errors()
        assert res2.stats.cache_hits == 2
        assert res2.stats.executed == 0

    @pytest.mark.parametrize("requests", [1000, 4000])
    def test_lanes_agree_on_every_mix(self, requests):
        eng = SweepEngine(
            requests_per_core=requests, cache=False, fastpath="force",
            recheck_fraction=1.0,
        )
        res = eng.run(("palp",), WORKLOAD_NAMES)
        res.raise_errors()
        assert res.stats.fastpath_cells == len(WORKLOAD_NAMES) == 8
        assert res.stats.recheck_samples == len(WORKLOAD_NAMES)
        assert res.stats.recheck_divergences == 0, res.certificate["rechecks"]
