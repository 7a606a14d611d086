"""Tests for the experiment harnesses (Fig 3 / Fig 10 / runner / ablation)."""

import numpy as np
import pytest

from repro.config import default_config
from repro.experiments.ablation import (
    sweep_no_flip,
    sweep_power_asymmetry,
    sweep_power_budget,
    sweep_time_asymmetry,
    sweep_write_unit_width,
)
from repro.experiments.fig03 import measure_bit_profile
from repro.experiments.fig10 import measure_write_units
from repro.experiments.fullsystem import precompute_write_service
from repro.experiments.runner import (
    BASELINE_SCHEME,
    run_schemes_on_workloads,
)
from repro.experiments.table import SCHEMES, Context
from repro.parallel import SweepEngine
from repro.trace.synthetic import generate_trace


@pytest.fixture(scope="module")
def dedup_trace():
    return generate_trace("dedup", requests_per_core=400, seed=7)


class TestFig03:
    def test_fast_path_means(self, dedup_trace):
        row = measure_bit_profile(dedup_trace)
        assert 8 <= row.mean_set + row.mean_reset <= 16
        assert row.mean_set > row.mean_reset  # dedup is SET-dominant

    def test_functional_path_agrees_with_counts(self):
        """The measurement through realized payloads + the real read
        stage must agree with the trace's drawn counts (the content model
        round-trips through Algorithm 1)."""
        trace = generate_trace("bodytrack", requests_per_core=60, seed=3)
        fast = measure_bit_profile(trace)
        slow = measure_bit_profile(trace, functional=True, max_writes=60)
        assert slow.mean_set == pytest.approx(fast.mean_set, rel=0.25)
        assert slow.mean_reset == pytest.approx(fast.mean_reset, rel=0.3)

    def test_bit_profile_rows(self):
        by_name = {
            name: measure_bit_profile(generate_trace(name, 300))
            for name in ("blackscholes", "vips")
        }
        assert by_name["blackscholes"].total < by_name["vips"].total


class TestFig10:
    def test_baseline_constants(self, dedup_trace):
        row = measure_write_units(dedup_trace)
        assert row.dcw == 8.0
        assert row.flip_n_write == 4.0
        assert row.two_stage == pytest.approx(3.0)
        assert row.three_stage == pytest.approx(2.5)

    def test_tetris_in_paper_band(self, dedup_trace):
        row = measure_write_units(dedup_trace)
        # Paper: 1.06 - 1.46 across workloads; dedup is at the heavy end.
        assert 1.0 <= row.tetris <= 1.6

    def test_write_units_ordering(self):
        by_name = {
            name: measure_write_units(generate_trace(name, 300))
            for name in ("blackscholes", "dedup")
        }
        assert by_name["blackscholes"].tetris <= by_name["dedup"].tetris


class TestPrecompute:
    def test_baselines_constant_service(self, dedup_trace):
        t = precompute_write_service(dedup_trace, "flip_n_write")
        assert np.allclose(t.service_ns, t.service_ns[0])
        assert t.mean_units() == 4.0

    def test_tetris_content_dependent(self, dedup_trace):
        t = precompute_write_service(dedup_trace, "tetris")
        assert t.units.std() > 0
        assert t.service_ns.min() >= 50.0 + 102.5  # read + analysis floor

    def test_energy_ordering_table1(self, dedup_trace):
        e = {
            name: precompute_write_service(dedup_trace, name).energy.mean()
            for name in ("dcw", "conventional", "flip_n_write", "two_stage",
                          "three_stage", "tetris")
        }
        # Table I: comparison-based schemes reduce energy; 2SW/conv don't.
        assert e["tetris"] < e["two_stage"]
        assert e["three_stage"] < e["conventional"]
        assert e["flip_n_write"] < e["two_stage"]

    def test_service_lengths_match_writes(self, dedup_trace):
        t = precompute_write_service(dedup_trace, "tetris")
        assert t.service_ns.shape == (dedup_trace.n_writes,)


class TestRunner:
    def test_grid_shape(self):
        results = run_schemes_on_workloads(
            ("dcw", "tetris"), ("swaptions",), requests_per_core=300
        )
        assert len(results) == 2
        assert {r.scheme for r in results} == {"dcw", "tetris"}

    def test_normalization_baseline_is_unity(self):
        results = run_schemes_on_workloads(
            (BASELINE_SCHEME, "tetris"), ("dedup",), requests_per_core=300
        )
        base = next(r for r in results if r.scheme == BASELINE_SCHEME)
        norm = base.normalized(base)
        assert all(v == pytest.approx(1.0) for v in norm.values())

    def test_report_grid_and_sweep_share_cache_entries(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        seed = 20160816
        grid = Context.build(200, seed).grid
        sweep = SweepEngine(
            requests_per_core=200, root_seed=seed, fastpath="off"
        ).run(SCHEMES)
        assert len(grid) == sweep.stats.cells == 40
        assert sweep.stats.executed == 0
        assert {(r.workload, r.scheme): r for r in sweep.rows} == grid


class TestAblations:
    def test_budget_sweep_monotone(self, dedup_trace):
        pts = sweep_power_budget(dedup_trace)
        units = [p.mean_units for p in pts]
        assert all(a >= b - 1e-9 for a, b in zip(units, units[1:]))

    def test_K_sweep_runs(self, dedup_trace):
        pts = sweep_time_asymmetry(dedup_trace)
        assert len(pts) == 5
        assert all(p.mean_units > 0 for p in pts)

    def test_L_sweep_monotone_nondec(self, dedup_trace):
        """Costlier RESETs can only make packing harder."""
        pts = sweep_power_asymmetry(dedup_trace)
        units = [p.mean_units for p in pts]
        assert all(b >= a - 1e-9 for a, b in zip(units, units[1:]))

    def test_width_sweep_mobile_modes(self, dedup_trace):
        pts = sweep_write_unit_width(dedup_trace)
        units = {int(p.value): p.mean_units for p in pts}
        # Narrower write units (less current) -> more write units needed.
        assert units[2] > units[4] > units[8] > units[16]

    def test_no_flip_costs_more(self, dedup_trace):
        flip_pt, noflip_pt = sweep_no_flip(dedup_trace)
        assert noflip_pt.mean_units >= flip_pt.mean_units
