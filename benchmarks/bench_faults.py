"""Cost of the fault subsystem on the scheme hot path (docs/FAULTS.md).

The robustness PR's bargain is: full program-and-verify machinery when
you ask for it, (near) zero cost when you don't.  Checked here:

1. **Disabled is <2% overhead.**  With ``faults.enabled=False`` the
   write path pays one ``if self.faults is None`` test plus the O(1)
   wear counter, so per-write time must stay within 2% of a direct
   ``_write_once`` loop — the pristine pre-fault-subsystem path, which
   still exists verbatim as the template-method hook and is the honest
   baseline to time.
2. **Enabled overhead is bounded and visible.**  The zero-rate enabled
   run (every write verified once, no retries) is reported alongside so
   the price of always-on verification stays on the dashboard.

Measured with the shared interleaved best-of minima harness
(``_bench_utils.interleaved_minima``), as every overhead gate is.
"""

from __future__ import annotations

import time

import numpy as np

from repro.config import FaultConfig, default_config
from repro.pcm.state import LineState
from repro.schemes.base import get_scheme

from _bench_utils import SEED, emit, interleaved_minima, make_payload
from repro.analysis.report import format_table

N_WRITES = 800
REPEATS = 3


def _config(mode: str):
    if mode == "pristine":
        return default_config().replace(track_wear=False)
    if mode == "disabled":
        return default_config()
    if mode == "zero_rate":
        return default_config().replace(
            faults=FaultConfig(enabled=True, seed=SEED)
        )
    raise ValueError(mode)


def _one_run(mode: str, payload: np.ndarray) -> float:
    """Per-write time (ns) for one TetrisWrite loop over the payload."""
    scheme = get_scheme("tetris", _config(mode))
    state = LineState.from_logical(payload[0])
    t0 = time.perf_counter()
    if mode == "pristine":
        for row in payload[1:]:
            scheme._write_once(state, row)
    else:
        for row in payload[1:]:
            scheme.write(state, row, line=0)
    elapsed = time.perf_counter() - t0
    return elapsed / (payload.shape[0] - 1) * 1e9


def test_disabled_fault_path_does_no_fault_work():
    """Flag off ⇒ no FaultModel exists and no retry pass ever runs."""
    payload = make_payload(50)
    scheme = get_scheme("tetris", _config("disabled"))
    assert scheme.faults is None
    state = LineState.from_logical(payload[0])
    for row in payload[1:]:
        out = scheme.write(state, row, line=0)
        assert out.attempts == 1 and out.retried_bits == 0


def test_disabled_fault_path_overhead(monkeypatch):
    monkeypatch.delenv("REPRO_VERIFY", raising=False)
    payload = make_payload(N_WRITES)

    # A shared/loaded machine adds noise an order of magnitude above the
    # wrapper's real cost (one attribute test + an O(1) wear counter per
    # ~100us write), so keep measuring until the minima have converged
    # below the bound (or the 8-round budget runs out).
    best = interleaved_minima(
        {
            "pristine_a": lambda: _one_run("pristine", payload),
            "disabled": lambda: _one_run("disabled", payload),
            "zero_rate": lambda: _one_run("zero_rate", payload),
            "pristine_b": lambda: _one_run("pristine", payload),
        },
        rounds=8, repeats=REPEATS,
        converged=lambda b: b["disabled"] <= min(b["pristine_a"], b["pristine_b"]) * 1.02,
    )

    pristine = min(best["pristine_a"], best["pristine_b"])
    disabled_pct = (best["disabled"] - pristine) / pristine * 100.0
    zero_rate_pct = (best["zero_rate"] - pristine) / pristine * 100.0

    rows = [
        ("pristine _write_once (run A)", f"{best['pristine_a']:9.1f}", ""),
        ("pristine _write_once (run B)", f"{best['pristine_b']:9.1f}", ""),
        ("faults disabled (default)", f"{best['disabled']:9.1f}",
         f"{disabled_pct:+.2f}%"),
        ("faults enabled, rate 0", f"{best['zero_rate']:9.1f}",
         f"{zero_rate_pct:+.2f}%"),
    ]
    emit(
        "fault_overhead",
        format_table(
            ["configuration", "ns/write", "vs pristine"],
            rows,
            title="Fault subsystem — TetrisWrite hot-path cost",
        ),
    )

    assert best["disabled"] <= pristine * 1.02, (
        f"zero-fault path overhead {disabled_pct:.2f}% exceeds 2% "
        f"({best['disabled']:.1f} vs {pristine:.1f} ns/write)"
    )
    # Zero-rate verification does real work (model pass per write); keep
    # a loose ceiling so a pathological regression trips the bench.
    assert best["zero_rate"] <= pristine * 5.0, (
        f"verify-path overhead exploded: {zero_rate_pct:.0f}%"
    )
