"""Cost of the observability subsystem on the scheme hot path.

The tracing PR's bargain mirrors the fault subsystem's: full Perfetto
timelines + a metric registry when you ask for them, (near) zero cost
when you don't.  Checked here:

1. **Disabled is <2% overhead.**  With ``trace.enabled=False`` (the
   default) every instrumented component resolves ``self._obs`` to
   ``None`` at construction and the write path pays exactly one
   ``if self._obs is not None`` test, so per-write time must stay
   within 2% of a direct ``_write_once`` loop — the pristine
   pre-instrumentation path, which still exists verbatim as the
   template-method hook and is the honest baseline to time.
2. **Enabled cost is bounded and visible.**  A traced run (scheme spans
   + FSM schedule slices + metrics, ManualClock so no syscalls) is
   reported alongside, normalized both per write and per emitted event,
   so the price of a recording run stays on the dashboard.

Measured with the shared interleaved best-of minima harness
(``_bench_utils.interleaved_minima``), as every overhead gate is.
"""

from __future__ import annotations

import time

from repro.config import TraceConfig, default_config
from repro.obs import ManualClock, Tracer
from repro.obs.runtime import tracing
from repro.pcm.state import LineState
from repro.schemes.base import get_scheme

from _bench_utils import emit, interleaved_minima, make_payload
from repro.analysis.report import format_table

N_WRITES = 800
REPEATS = 3
TRACED_CFG = default_config().replace(
    trace=TraceConfig(enabled=True, buffer_events=1 << 16, clock="sim")
)


def _one_run(mode: str, payload) -> tuple[float, int]:
    """(per-write ns, events recorded) for one TetrisWrite loop."""
    n = payload.shape[0] - 1
    if mode == "enabled":
        with tracing(Tracer(capacity=1 << 16, clock=ManualClock())) as tr:
            scheme = get_scheme("tetris", TRACED_CFG)
            state = LineState.from_logical(payload[0])
            t0 = time.perf_counter()
            for row in payload[1:]:
                scheme.write(state, row, line=0)
            elapsed = time.perf_counter() - t0
        return elapsed / n * 1e9, tr.recorded

    scheme = get_scheme("tetris", default_config())
    state = LineState.from_logical(payload[0])
    t0 = time.perf_counter()
    if mode == "pristine":
        for row in payload[1:]:
            scheme._write_once(state, row)
    else:  # "disabled": the full wrapped write path, tracing off
        for row in payload[1:]:
            scheme.write(state, row, line=0)
    elapsed = time.perf_counter() - t0
    return elapsed / n * 1e9, 0


def test_disabled_trace_path_does_no_obs_work():
    """Flag off ⇒ the scheme holds no tracer and records no events."""
    payload = make_payload(50)
    scheme = get_scheme("tetris", default_config())
    assert scheme._obs is None
    state = LineState.from_logical(payload[0])
    for row in payload[1:]:
        scheme.write(state, row, line=0)


def test_enabled_trace_path_records():
    """Sanity: the enabled leg of the bench actually traces."""
    payload = make_payload(20)
    _, events = _one_run("enabled", payload)
    assert events > 0


def test_disabled_trace_path_overhead(monkeypatch):
    monkeypatch.delenv("REPRO_VERIFY", raising=False)
    payload = make_payload(N_WRITES)
    traced = {"events": 0}

    def enabled() -> float:
        ns, traced["events"] = _one_run("enabled", payload)
        return ns

    # Keep measuring until the disabled minimum has converged below the
    # bound (or the 8-round budget runs out).
    best = interleaved_minima(
        {
            "pristine_a": lambda: _one_run("pristine", payload)[0],
            "disabled": lambda: _one_run("disabled", payload)[0],
            "enabled": enabled,
            "pristine_b": lambda: _one_run("pristine", payload)[0],
        },
        rounds=8, repeats=REPEATS,
        converged=lambda b: b["disabled"] <= min(b["pristine_a"], b["pristine_b"]) * 1.02,
    )
    events = traced["events"]

    pristine = min(best["pristine_a"], best["pristine_b"])
    disabled_pct = (best["disabled"] - pristine) / pristine * 100.0
    enabled_pct = (best["enabled"] - pristine) / pristine * 100.0
    events_per_write = events / N_WRITES
    ns_per_event = (
        (best["enabled"] - best["disabled"]) / events_per_write
        if events_per_write else 0.0
    )

    rows = [
        ("pristine _write_once (run A)", f"{best['pristine_a']:9.1f}", ""),
        ("pristine _write_once (run B)", f"{best['pristine_b']:9.1f}", ""),
        ("tracing disabled (default)", f"{best['disabled']:9.1f}",
         f"{disabled_pct:+.2f}%"),
        ("tracing enabled (ManualClock)", f"{best['enabled']:9.1f}",
         f"{enabled_pct:+.2f}%"),
        (f"  -> {events_per_write:.1f} events/write",
         f"{ns_per_event:9.1f}", "ns/event"),
    ]
    emit(
        "obs_overhead",
        format_table(
            ["configuration", "ns/write", "vs pristine"],
            rows,
            title="Observability — TetrisWrite hot-path cost",
        ),
    )

    assert best["disabled"] <= pristine * 1.02, (
        f"tracing-disabled overhead {disabled_pct:.2f}% exceeds 2% "
        f"({best['disabled']:.1f} vs {pristine:.1f} ns/write)"
    )
    # Recording does real work (spans, schedule slices, metrics); keep a
    # loose ceiling so a pathological regression trips the bench.
    assert best["enabled"] <= pristine * 5.0, (
        f"enabled-path overhead exploded: {enabled_pct:.0f}%"
    )
