"""Fault subsystem: injection, verify-and-retry, ECP, retirement.

The acceptance bar this file enforces:

* with the fault model *disabled* every scheme's ``write`` is
  bit-identical to its pristine ``_write_once`` pass (outcome and state);
* a fixed seed reproduces the exact same failures run-to-run;
* a write scripted to succeed on its k-th attempt is priced *exactly*
  (attempts, residual units, verify reads, energy) per the extended
  Equation-5 decomposition, which the invariant verifier re-checks;
* every degradation rung — stuck cells, ECP absorption, retirement to a
  spare — ends with a read-back equal to the committed image, and the
  final rung raises a structured :class:`UncorrectableWriteError` with
  the stored image restored: never silent corruption.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.config import FaultConfig, default_config
from repro.core.analysis import TetrisScheduler
from repro.faults import (
    ECPTable,
    FaultModel,
    SparePool,
    UncorrectableWriteError,
)
from repro.faults.ecp import SPARE_BASE
from repro.pcm.bank import PCMBank
from repro.pcm.chip import PCMChip
from repro.pcm.state import LineState, cell_diff, initial_line_content
from repro.pcm.write_driver import WriteDriver
from repro.schemes import ALL_SCHEMES, EXTENSION_SCHEMES, get_scheme
from repro.schemes.base import WriteOutcome
from repro.sim.stats import FaultStats
from repro.verify import InvariantViolation, verify_outcome

_U64 = np.uint64
SEED = 20160816


def faulty_config(**kwargs):
    """Default config with the fault model enabled and overrides applied."""
    fields = dict(enabled=True, seed=SEED)
    fields.update(kwargs)
    return default_config().replace(faults=FaultConfig(**fields))


def fresh_line(line: int = 0, units: int = 8) -> np.ndarray:
    return initial_line_content(SEED, line, units)


def payload_for(state: LineState, flip_bits: int, rng) -> np.ndarray:
    """A new logical image differing from the current one in some cells."""
    mask = np.zeros(state.physical.size, dtype=_U64)
    for u in range(mask.size):
        bits = rng.choice(64, size=flip_bits, replace=False)
        mask[u] = np.bitwise_or.reduce(_U64(1) << bits.astype(_U64))
    return state.logical ^ mask


# ----------------------------------------------------------------------
# ECP table and spare pool mechanics.
# ----------------------------------------------------------------------
def test_ecp_assigns_within_capacity_and_covers():
    ecp = ECPTable(entries_per_line=3)
    mask = np.array([0b101, 0], dtype=_U64)
    assert ecp.try_assign(7, mask)
    assert ecp.entries_used(7) == 2
    np.testing.assert_array_equal(ecp.covered_mask(7, 2), mask)
    # Re-assigning already-covered cells consumes nothing new.
    assert ecp.try_assign(7, mask)
    assert ecp.entries_used(7) == 2
    assert ecp.try_assign(7, np.array([0b010, 0], dtype=_U64))
    assert ecp.entries_used(7) == 3


def test_ecp_refuses_over_capacity_without_partial_assignment():
    ecp = ECPTable(entries_per_line=2)
    assert not ecp.try_assign(1, np.array([0b111], dtype=_U64))
    assert ecp.entries_used(1) == 0
    assert ecp.lines_with_entries() == []


def test_spare_pool_retires_and_resolves_chains():
    pool = SparePool(capacity=2)
    first = pool.retire(5)
    assert first == SPARE_BASE
    assert pool.resolve(5) == first
    second = pool.retire(first)  # the spare itself can die
    assert pool.resolve(5) == second
    assert pool.spares_left == 0
    assert not pool.can_retire()
    with pytest.raises(RuntimeError):
        pool.retire(6)
    assert pool.retired_lines == sorted([5, first])


# ----------------------------------------------------------------------
# Driver- and chip-level program-and-verify.
# ----------------------------------------------------------------------
def test_driver_program_verified_retries_failed_bits():
    driver = WriteDriver()

    def fail_bit4_once(attempt, attempted):
        return np.array([0x10 if attempt == 0 else 0], dtype=_U64)

    res = driver.program_verified(
        np.array([0x0F], dtype=_U64),
        np.array([0xF0], dtype=_U64),
        injector=fail_bit4_once,
    )
    assert res.attempts == 2
    assert res.verified
    assert int(res.result[0]) == 0xF0
    assert int(res.set_mask[0]) == 0xF0 and int(res.reset_mask[0]) == 0x0F


def test_driver_program_verified_reports_residual_when_bounded():
    driver = WriteDriver()

    def always_fail_bit4(attempt, attempted):
        return np.array([0x10], dtype=_U64)

    res = driver.program_verified(
        np.array([0x0F], dtype=_U64),
        np.array([0xF0], dtype=_U64),
        injector=always_fail_bit4,
        max_attempts=3,
    )
    assert res.attempts == 3
    assert not res.verified
    assert int(res.residual[0]) == 0x10
    assert int(res.result[0]) == 0xE0  # everything but the dead bit landed


def test_chip_burst_counts_retries_and_commits():
    chip = PCMChip(
        chip_id=0,
        slice_bits=16,
        fault_injector=lambda a, m: np.asarray(
            [0x1 if a == 0 else 0], dtype=_U64
        ),
    )
    chip.load(0, np.array([0x0000], dtype=_U64))
    chip.execute_burst(0, 0, 0x00FF, "both")
    assert chip.read(0, 0) == 0x00FF
    assert chip.retried_bursts == 1
    assert chip.retry_programs == 1
    assert chip.unverified_bursts == 0


def test_cell_diff_counts_transitions():
    before = np.array([0b1100, 0b0011], dtype=_U64)
    after = np.array([0b1010, 0b0111], dtype=_U64)
    assert cell_diff(before, after) == (2, 1)


# ----------------------------------------------------------------------
# Disabled fault model: the write path is bit-identical to the pristine
# pass for every registered scheme.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ALL_SCHEMES + EXTENSION_SCHEMES)
def test_disabled_faults_bit_identical_outcomes(name):
    cfg = default_config()
    assert not cfg.faults.enabled
    via_write = get_scheme(name, cfg)
    pristine = get_scheme(name, cfg)
    state_a = LineState.from_logical(fresh_line())
    state_b = state_a.copy()
    rng = np.random.default_rng(SEED)
    for i in range(6):
        new = payload_for(state_a, flip_bits=5, rng=rng)
        out_a = via_write.write(state_a, new.copy(), line=i % 2)
        out_b = pristine._write_once(state_b, new.copy())
        assert out_a == out_b  # frozen dataclass: field-exact equality
        assert out_a.attempts == 1 and out_a.retried_bits == 0
        np.testing.assert_array_equal(state_a.physical, state_b.physical)
        np.testing.assert_array_equal(state_a.flip, state_b.flip)


def test_zero_rate_enabled_path_adds_only_the_verify_read():
    cfg = faulty_config()
    scheme = get_scheme("dcw", cfg)
    baseline = get_scheme("dcw", default_config())
    state = LineState.from_logical(fresh_line())
    twin = state.copy()
    rng = np.random.default_rng(SEED)
    new = payload_for(state, flip_bits=4, rng=rng)
    out = scheme.write(state, new.copy(), line=3)
    base = baseline.write(twin, new.copy(), line=3)
    assert out.attempts == 1
    assert out.retried_bits == 0
    assert out.verify_ns == pytest.approx(scheme.t_read)
    assert out.service_ns == pytest.approx(base.service_ns + scheme.t_read)
    assert out.units == pytest.approx(base.units)
    np.testing.assert_array_equal(state.physical, twin.physical)
    np.testing.assert_array_equal(
        scheme.faults.readback(3, state.physical), state.physical
    )


# ----------------------------------------------------------------------
# Scripted k-th-attempt success: exact latency/energy accounting.
# ----------------------------------------------------------------------
class ScriptedFaultModel(FaultModel):
    """Fails every attempted bit on the first ``k - 1`` pulses per line."""

    def __init__(self, config, *, fail_passes: int, wear=None):
        super().__init__(config, wear=wear)
        self.fail_passes = fail_passes

    def _transient_fail_mask(self, rate, pline, units):
        idx = self._draws.get(pline, 0)
        self._draws[pline] = idx + 1
        if idx < self.fail_passes:
            return np.full(units, self._lane, dtype=_U64)
        return np.zeros(units, dtype=_U64)


@pytest.mark.parametrize("k", [2, 3])
def test_kth_attempt_success_is_priced_exactly(k):
    cfg = faulty_config(transient_bit_error_rate=0.5, max_write_attempts=k)
    scheme = get_scheme("dcw", cfg)
    scheme.faults = ScriptedFaultModel(cfg, fail_passes=k - 1, wear=scheme.wear)
    baseline = get_scheme("dcw", default_config())

    state = LineState.from_logical(fresh_line())
    twin = state.copy()
    rng = np.random.default_rng(SEED)
    new = payload_for(state, flip_bits=3, rng=rng)
    before = state.physical.copy()
    base = baseline.write(twin, new.copy())
    out = scheme.write(state, new.copy(), line=0)

    # Each of the k - 1 retry passes re-programs the full difference.
    diff = before ^ state.physical
    set_m = diff & state.physical
    reset_m = diff & before
    d_set = int(np.bitwise_count(set_m).sum())
    d_reset = int(np.bitwise_count(reset_m).sum())
    assert d_set + d_reset > 0
    sched = TetrisScheduler(
        cfg.K, cfg.L, cfg.bank_power_budget, allow_split=True
    ).schedule(
        np.bitwise_count(set_m).astype(np.int64),
        np.bitwise_count(reset_m).astype(np.int64),
    )
    per_pass_units = sched.service_units()

    assert out.attempts == k
    assert out.retried_bits == (k - 1) * (d_set + d_reset)
    assert out.retry_units == pytest.approx((k - 1) * per_pass_units)
    assert out.verify_ns == pytest.approx(k * scheme.t_read)
    assert out.service_ns == pytest.approx(
        base.service_ns + out.retry_units * scheme.t_set + k * scheme.t_read
    )
    extra_energy = float(
        scheme.energy_model.write_energy((k - 1) * d_set, (k - 1) * d_reset)
    ) + k * scheme.energy_model.read_energy_per_line
    assert out.energy == pytest.approx(base.energy + extra_energy)
    # The committed image survives a read-back audit.
    np.testing.assert_array_equal(
        scheme.faults.readback(0, state.physical), state.physical
    )


def test_same_seed_reproduces_identical_retry_sequences():
    reports = []
    for _ in range(2):
        cfg = faulty_config(transient_bit_error_rate=0.05)
        scheme = get_scheme("tetris", cfg)
        state = LineState.from_logical(fresh_line())
        rng = np.random.default_rng(SEED)
        run = []
        for i in range(12):
            new = payload_for(state, flip_bits=6, rng=rng)
            out = scheme.write(state, new.copy(), line=i % 3)
            run.append((out.attempts, out.retried_bits, out.service_ns))
        reports.append(run)
    assert reports[0] == reports[1]
    assert any(attempts > 1 for attempts, _, _ in reports[0])


# ----------------------------------------------------------------------
# Degradation ladder: stuck cells -> ECP -> retirement -> uncorrectable.
# ----------------------------------------------------------------------
HAMMER_MASK = _U64((1 << 0) | (1 << 32))  # 2 cells/unit -> 16 cells/line


def hammer(scheme, state, line, n):
    """Toggle the same 16 cells n times; returns the last outcome.

    Concentrating the traffic on a fixed cell set drives those cells
    across a small endurance budget in a few dozen writes while the rest
    of the line stays healthy — the ECP-sized fault pattern.
    """
    out = None
    for _ in range(n):
        new = state.logical ^ HAMMER_MASK
        out = scheme.write(state, new.copy(), line=line)
    return out


def test_endurance_exhaustion_degrades_through_ecp():
    cfg = faulty_config(
        endurance_mean=40.0, endurance_sigma=0.1, ecp_entries=48, spare_lines=0
    )
    scheme = get_scheme("dcw", cfg)
    state = LineState.from_logical(fresh_line())
    out = hammer(scheme, state, line=0, n=60)
    model = scheme.faults
    assert model.stuck_cells(0, state.physical.size) > 0
    assert model.degraded_writes > 0
    assert out is not None and model.ecp.entries_used(0) > 0
    np.testing.assert_array_equal(
        model.readback(0, state.physical), state.physical
    )


def test_over_ecp_line_retires_to_spare_and_stays_readable():
    cfg = faulty_config(
        endurance_mean=30.0, endurance_sigma=0.1, ecp_entries=2, spare_lines=4
    )
    scheme = get_scheme("dcw", cfg)
    state = LineState.from_logical(fresh_line())
    hammer(scheme, state, line=0, n=80)
    model = scheme.faults
    assert model.retirements > 0
    assert model.physical_of(0) >= SPARE_BASE
    np.testing.assert_array_equal(
        model.readback(0, state.physical), state.physical
    )


def test_uncorrectable_raises_structured_error_and_restores_state():
    cfg = faulty_config(
        endurance_mean=20.0, endurance_sigma=0.1, ecp_entries=0, spare_lines=0
    )
    scheme = get_scheme("dcw", cfg)
    state = LineState.from_logical(fresh_line())
    rng = np.random.default_rng(SEED)
    with pytest.raises(UncorrectableWriteError) as excinfo:
        for i in range(200):
            new = payload_for(state, flip_bits=8, rng=rng)
            snapshot = state.physical.copy()
            scheme.write(state, new.copy(), line=0)
    err = excinfo.value
    assert err.line == 0
    assert err.stuck_bits > 0
    # The failed write rolled the stored image back — no torn line.
    np.testing.assert_array_equal(state.physical, snapshot)


def test_bank_counts_uncorrectable_writes():
    cfg = faulty_config(
        endurance_mean=20.0, endurance_sigma=0.1, ecp_entries=0, spare_lines=0
    )
    bank = PCMBank(0, get_scheme("dcw", cfg), cfg)
    rng = np.random.default_rng(SEED)
    with pytest.raises(UncorrectableWriteError):
        for i in range(200):
            old = bank.image.read_logical(5)
            mask = _U64(np.bitwise_or.reduce(_U64(1) << rng.choice(64, 8).astype(_U64)))
            bank.write(5, old ^ mask)
    assert bank.stats.uncorrectable == 1


# ----------------------------------------------------------------------
# Invariant verifier: forged retry accounting is rejected.
# ----------------------------------------------------------------------
def forged(**kwargs):
    base = dict(
        service_ns=50.0 + 52.5 + 430.0,
        units=1.0,
        read_ns=50.0,
        analysis_ns=52.5,
        n_set=1,
        n_reset=0,
        energy=1.0,
    )
    base.update(kwargs)
    return WriteOutcome(**base)


def test_invariants_accept_consistent_multi_attempt_outcome():
    verify_outcome(
        forged(
            service_ns=50.0 + 52.5 + (1.0 + 0.5) * 430.0 + 100.0,
            attempts=2,
            retried_bits=3,
            retry_units=0.5,
            verify_ns=100.0,
        ),
        t_set_ns=430.0,
    )


@pytest.mark.parametrize(
    "fields",
    [
        dict(attempts=0),
        dict(attempts=1, retried_bits=4),
        dict(attempts=1, retry_units=2.0),
        dict(attempts=2, retried_bits=-1),
        dict(attempts=2, verify_ns=-5.0),
    ],
)
def test_invariants_reject_forged_retry_accounting(fields):
    with pytest.raises(InvariantViolation):
        verify_outcome(forged(**fields), t_set_ns=430.0)


def test_invariants_reject_unpriced_retry_latency():
    # Claims 2 attempts and retried bits but hides the extra service time.
    with pytest.raises(InvariantViolation) as exc:
        verify_outcome(
            forged(attempts=2, retried_bits=3, retry_units=0.5, verify_ns=100.0),
            t_set_ns=430.0,
        )
    assert exc.value.kind == "service_decomposition"


# ----------------------------------------------------------------------
# Aggregation and the sweep experiment.
# ----------------------------------------------------------------------
def test_fault_stats_observe_folds_outcomes():
    stats = FaultStats()
    stats.observe(forged())
    stats.observe(
        forged(
            service_ns=50.0 + 52.5 + 1.5 * 430.0 + 100.0,
            attempts=2,
            retried_bits=3,
            retry_units=0.5,
            verify_ns=100.0,
            degraded=True,
        )
    )
    assert stats.writes == 2
    assert stats.retried_writes == 1
    assert stats.mean_attempts == pytest.approx(1.5)
    assert stats.retry_rate == pytest.approx(0.5)
    assert stats.degraded_writes == 1
    assert stats.summary()["retried_bits"] == 3


def test_fault_sweep_is_deterministic_and_monotone():
    from repro.experiments.faults import run_fault_sweep
    from repro.trace.synthetic import generate_trace

    def sweep():
        trace = generate_trace("dedup", 120, seed=SEED)
        return run_fault_sweep(trace, (0.0, 1e-2), ("dcw",))

    rows_a = sweep()
    rows_b = sweep()
    assert rows_a == rows_b
    clean, noisy = rows_a
    assert clean.mean_attempts == pytest.approx(1.0)
    assert clean.retry_rate == pytest.approx(0.0)
    assert noisy.mean_attempts > 1.0
    assert noisy.mean_service_ns > clean.mean_service_ns


def test_retirement_curve_walks_the_cascade():
    from repro.experiments.faults import retirement_curve

    points = retirement_curve(seed=SEED)
    assert points, "curve must produce at least one snapshot"
    last = points[-1]
    assert last.stuck_cells > 0
    assert last.retired_lines > 0 or last.uncorrectable > 0
    # Degradation only accumulates.
    for a, b in zip(points, points[1:]):
        assert b.stuck_cells >= a.stuck_cells
        assert b.retired_lines >= a.retired_lines


# ----------------------------------------------------------------------
# Wear satellite: tracking rides the default path; the switch works.
# ----------------------------------------------------------------------
def test_wear_tracking_is_on_by_default_and_switchable():
    cfg = default_config()
    assert cfg.track_wear
    scheme = get_scheme("dcw", cfg)
    assert scheme.wear is not None
    state = LineState.from_logical(fresh_line())
    rng = np.random.default_rng(SEED)
    new = payload_for(state, flip_bits=4, rng=rng)
    out = scheme.write(state, new.copy(), line=9)
    assert scheme.wear.programs_of(9) == out.n_set + out.n_reset

    bare = get_scheme("dcw", cfg.replace(track_wear=False))
    assert bare.wear is None
    bare.write(LineState.from_logical(fresh_line()), new.copy(), line=9)


def test_fault_mode_forces_cell_level_wear_sharing():
    scheme = get_scheme("dcw", faulty_config())
    assert scheme.wear is not None and scheme.wear.cell_tracking
    assert scheme.faults.wear is scheme.wear


# ----------------------------------------------------------------------
# CI smoke: replay a workload at an environment-selected fault rate and
# audit every committed line (the workflow job sets REPRO_FAULT_RATE).
# ----------------------------------------------------------------------
def test_fault_injection_smoke_readback_clean():
    rate = float(os.environ.get("REPRO_FAULT_RATE", "1e-3"))
    from repro.experiments.faults import replay_writes
    from repro.trace.synthetic import generate_trace

    cfg = faulty_config(transient_bit_error_rate=rate)
    trace = generate_trace("dedup", 120, seed=SEED)
    stats, _, _, bank = replay_writes("tetris", trace, cfg)
    assert stats.writes > 0
    model = bank.scheme.faults
    for line in bank.image.touched_lines():
        stored = bank.image.line(line).physical
        np.testing.assert_array_equal(model.readback(line, stored), stored)
