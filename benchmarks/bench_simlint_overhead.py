"""Cost of the runtime invariant verifier on the scheme hot path.

Two claims from docs/SIMLINT.md are checked here:

1. **Disabled is (near) zero-cost.**  With verification off the write
   path pays a single ``if self.verify`` attribute test, so per-write
   time must be within 10% of a control run of the identical loop
   (the control re-measures the same disabled configuration, which
   bounds the check by the timer's own run-to-run noise — the honest
   baseline, since the pre-verifier code no longer exists to time).
   Semantically, zero-cost is asserted exactly: with the flag off the
   verifier functions are never entered at all.
2. **Enabled overhead is bounded and visible.**  The verified run's
   per-write cost is reported next to the disabled run so regressions
   in the checker itself show up in benchmarks/out/.

The workload is a scalar scheme loop: per-write ``TetrisWrite.write``
over synthetic content, the path every full-system experiment exercises
per serviced write.
"""

from __future__ import annotations

import time

import numpy as np

from repro.config import default_config
from repro.pcm.state import LineState
from repro.schemes.base import get_scheme
from repro.verify import invariants

from _bench_utils import emit
from repro.analysis.report import format_table

N_WRITES = 800
REPEATS = 3


def _make_workload(n_writes: int) -> np.ndarray:
    rng = np.random.default_rng(20160816)
    lines = rng.integers(0, 1 << 63, size=(n_writes + 1, 8), dtype=np.uint64)
    # Realistic partial-change writes: flip a limited bit window.
    masks = rng.integers(0, 1 << 16, size=(n_writes + 1, 8), dtype=np.uint64)
    return lines ^ masks


def _one_run(verify: bool, payload: np.ndarray) -> float:
    """Per-write time (ns) for one TetrisWrite loop over the payload."""
    scheme = get_scheme("tetris", default_config(verify_invariants=verify))
    state = LineState.from_logical(payload[0])
    t0 = time.perf_counter()
    for row in payload[1:]:
        scheme.write(state, row)
    elapsed = time.perf_counter() - t0
    return elapsed / (payload.shape[0] - 1) * 1e9


def _measure(payload: np.ndarray) -> tuple[float, float, float]:
    """Interleaved best-of-REPEATS for (off-A, on, off-B).

    Interleaving the configurations and taking minima makes the numbers
    comparable even when the whole benchmark session loads the machine;
    the two off runs bound the residual timer noise.
    """
    off_a = on = off_b = float("inf")
    for _ in range(REPEATS):
        off_a = min(off_a, _one_run(False, payload))
        on = min(on, _one_run(True, payload))
        off_b = min(off_b, _one_run(False, payload))
    return off_a, on, off_b


def test_disabled_verifier_is_zero_cost(monkeypatch):
    """Flag off ⇒ the verifier is never entered (exact zero-cost check)."""
    monkeypatch.delenv("REPRO_VERIFY", raising=False)
    calls = {"schedule": 0, "outcome": 0}
    real_schedule = invariants.verify_schedule
    real_outcome = invariants.verify_outcome

    def counting_schedule(*args, **kwargs):
        calls["schedule"] += 1
        return real_schedule(*args, **kwargs)

    def counting_outcome(*args, **kwargs):
        calls["outcome"] += 1
        return real_outcome(*args, **kwargs)

    # Patch at both the definition and the call sites.
    import repro.schemes.base as base_mod
    import repro.schemes.tetris as tetris_mod

    monkeypatch.setattr(invariants, "verify_schedule", counting_schedule)
    monkeypatch.setattr(invariants, "verify_outcome", counting_outcome)
    monkeypatch.setattr(tetris_mod, "verify_schedule", counting_schedule)
    monkeypatch.setattr(tetris_mod, "verify_outcome", counting_outcome)
    monkeypatch.setattr(base_mod, "verify_outcome", counting_outcome)

    payload = _make_workload(50)
    scheme = get_scheme("tetris", default_config())
    assert scheme.verify is False
    state = LineState.from_logical(payload[0])
    for row in payload[1:]:
        scheme.write(state, row)
    assert calls == {"schedule": 0, "outcome": 0}

    scheme_on = get_scheme("tetris", default_config(verify_invariants=True))
    state = LineState.from_logical(payload[0])
    for row in payload[1:]:
        scheme_on.write(state, row)
    # 50 writes: one schedule check each; outcome checked twice (component
    # pass in _outcome, state-diff pass in TetrisWrite.write).
    assert calls["schedule"] == 50 and calls["outcome"] == 100


def test_verifier_overhead(monkeypatch):
    monkeypatch.delenv("REPRO_VERIFY", raising=False)
    payload = _make_workload(N_WRITES)

    # A loaded machine can make even two identical runs diverge; retry
    # the full interleaved measurement a few times before declaring the
    # disabled path non-zero-cost.
    for _ in range(3):
        off_a, on, off_b = _measure(payload)
        if max(off_a, off_b) <= min(off_a, off_b) * 1.10:
            break

    off = min(off_a, off_b)
    noise_pct = abs(off_a - off_b) / off * 100.0
    on_pct = (on - off) / off * 100.0

    rows = [
        ("verify off (run A)", f"{off_a:9.1f}", ""),
        ("verify off (run B)", f"{off_b:9.1f}", f"noise {noise_pct:.1f}%"),
        ("verify on", f"{on:9.1f}", f"+{on_pct:.1f}%"),
    ]
    emit(
        "simlint_overhead",
        format_table(
            ["configuration", "ns/write", "delta"],
            rows,
            title="Runtime invariant verifier — TetrisWrite hot-path cost",
        ),
    )

    # Disabled must stay within 10% of the control run of the same
    # disabled loop; generous slack because CI timers jitter.
    assert max(off_a, off_b) <= min(off_a, off_b) * 1.10, (
        f"disabled-path runs diverge: {off_a:.1f} vs {off_b:.1f} ns/write"
    )
    # The enabled path does real work; just bound it loosely so a
    # pathological regression (e.g. accidental O(n^2) check) trips.
    assert on <= off * 5.0, f"verifier overhead exploded: {on_pct:.0f}%"
