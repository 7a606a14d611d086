"""Fault-injection experiments: retry-latency sweeps and wear-out curves.

Two questions the robustness subsystem (``repro.faults``) must answer
quantitatively:

* **What does reliability cost?** :func:`run_fault_sweep` replays one
  trace's writes through each scheme at a range of transient bit-error
  rates and reports how the verify-and-retry loop stretches the service
  latency distribution (mean / P50 / P99) and energy.  At rate 0 the
  numbers must coincide with the fault-free simulator (the bench in
  ``benchmarks/bench_faults.py`` holds the overhead under 2%).
* **How does the array die?** :func:`retirement_curve` hammers a small
  set of lines with a tiny endurance budget and records the degradation
  cascade: cells sticking, ECP entries filling, lines retiring to
  spares, and finally the first :class:`UncorrectableWriteError`.

Both are deterministic for a fixed seed: payloads come from counter-based
``SeedSequence`` streams and the fault model draws all randomness from
``FaultConfig.seed``.  The experiment table renders both
(``tetris-write report fault_sweep fault_wearout``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import FaultConfig, SystemConfig, default_config
from repro.faults import UncorrectableWriteError
from repro.pcm.bank import PCMBank
from repro.schemes import get_scheme
from repro.sim.stats import FaultStats, Histogram, LatencyStat
from repro.trace.content import realize_payload
from repro.trace.record import Trace

__all__ = [
    "FaultSweepRow",
    "RetirementPoint",
    "replay_writes",
    "retirement_curve",
    "run_fault_sweep",
]

_U64 = np.uint64

DEFAULT_RATES = (0.0, 1e-4, 1e-3, 1e-2)
DEFAULT_SCHEMES = ("dcw", "tetris")

# Latency histogram resolution: 25 ns bins cover the retry-stretched tail
# of a ~50-1000 ns write service distribution with a 6.4 us overflow bin.
_BIN_NS = 25.0
_BINS = 256


@dataclass(frozen=True)
class FaultSweepRow:
    """One (scheme, transient rate) point of the fault sweep."""

    scheme: str
    rate: float
    writes: int
    mean_attempts: float
    retry_rate: float
    mean_service_ns: float
    p50_service_ns: float
    p99_service_ns: float
    mean_energy: float
    degraded_writes: int
    retirements: int
    uncorrectable: int


@dataclass(frozen=True)
class RetirementPoint:
    """Degradation snapshot after ``writes_issued`` hammer writes."""

    writes_issued: int
    stuck_cells: int
    ecp_lines: int
    retired_lines: int
    mean_attempts: float
    uncorrectable: int


def replay_writes(
    scheme_name: str,
    trace: Trace,
    config: SystemConfig,
) -> tuple[FaultStats, LatencyStat, Histogram, PCMBank]:
    """Replay every write of a trace through one bank and aggregate.

    Write payloads are realized against the live image with the same
    counter-based per-write streams the full-system model uses, so the
    content evolution is identical across schemes and fault rates.
    Uncorrectable writes are counted (in ``FaultStats.uncorrectable``)
    and the replay continues — the sweep charts degradation, it does not
    abort on the first lost line.
    """
    scheme = get_scheme(scheme_name, config)
    bank = PCMBank(0, scheme, config)
    stats = FaultStats()
    lat = LatencyStat(name=f"{scheme_name}_service_ns")
    hist = Histogram(f"{scheme_name}_service_ns", _BIN_NS, _BINS)
    for w, idx in enumerate(trace.write_indices):
        line = int(trace.records["line"][idx])
        old_logical = bank.image.read_logical(line)
        rng = np.random.default_rng(np.random.SeedSequence([trace.seed, w]))
        new_logical = realize_payload(
            rng, old_logical, trace.write_counts[w], config.data_unit_bits
        )
        try:
            outcome = bank.write(line, new_logical)
        except UncorrectableWriteError:
            stats.uncorrectable += 1
            continue
        stats.observe(outcome)
        lat.add(outcome.service_ns)
        hist.add(outcome.service_ns)
    return stats, lat, hist, bank


def run_fault_sweep(
    trace: Trace,
    rates: tuple[float, ...] = DEFAULT_RATES,
    schemes: tuple[str, ...] = DEFAULT_SCHEMES,
    *,
    config: SystemConfig | None = None,
) -> list[FaultSweepRow]:
    """Sweep transient bit-error rate x scheme -> latency/energy rows.

    The fault model is seeded with ``trace.seed``.
    """
    base = config if config is not None else default_config()
    rows = []
    for scheme_name in schemes:
        for rate in rates:
            cfg = base.replace(
                faults=FaultConfig(
                    enabled=True,
                    transient_bit_error_rate=rate,
                    seed=trace.seed,
                )
            )
            stats, lat, hist, bank = replay_writes(scheme_name, trace, cfg)
            model = bank.scheme.faults
            rows.append(
                FaultSweepRow(
                    scheme=scheme_name,
                    rate=rate,
                    writes=stats.writes,
                    mean_attempts=stats.mean_attempts,
                    retry_rate=stats.retry_rate,
                    mean_service_ns=lat.mean,
                    p50_service_ns=hist.percentile(50.0),
                    p99_service_ns=hist.percentile(99.0),
                    mean_energy=(
                        bank.stats.energy / stats.writes if stats.writes else 0.0
                    ),
                    degraded_writes=stats.degraded_writes,
                    retirements=model.retirements if model is not None else 0,
                    uncorrectable=stats.uncorrectable,
                )
            )
    return rows


def retirement_curve(
    *,
    scheme_name: str = "dcw",
    lines: int = 4,
    hammer_writes: int = 400,
    sample_every: int = 50,
    endurance_mean: float = 60.0,
    endurance_sigma: float = 0.3,
    ecp_entries: int = 4,
    spare_lines: int = 2,
    seed: int = 20160816,
    config: SystemConfig | None = None,
) -> list[RetirementPoint]:
    """Hammer a few lines until the array degrades; snapshot the cascade.

    Alternating complementary payloads force near-worst-case cell traffic
    so a tiny ``endurance_mean`` exercises the whole degradation ladder
    (stuck cells -> ECP -> retirement -> uncorrectable) in a few hundred
    writes.  The curve stops early once every hammered line is lost.
    """
    base = config if config is not None else default_config()
    cfg = base.replace(
        faults=FaultConfig(
            enabled=True,
            endurance_mean=endurance_mean,
            endurance_sigma=endurance_sigma,
            ecp_entries=ecp_entries,
            spare_lines=spare_lines,
            seed=seed,
        )
    )
    scheme = get_scheme(scheme_name, cfg)
    bank = PCMBank(0, scheme, cfg)
    model = scheme.faults
    units = cfg.data_units_per_line
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    patterns = rng.integers(0, np.iinfo(np.uint64).max, size=units, dtype=_U64)
    stats = FaultStats()
    points: list[RetirementPoint] = []
    dead: set[int] = set()

    def snapshot(issued: int) -> RetirementPoint:
        stuck = sum(model.stuck_cells(line, units) for line in range(lines))
        return RetirementPoint(
            writes_issued=issued,
            stuck_cells=stuck,
            ecp_lines=len(model.ecp.lines_with_entries()),
            retired_lines=len(model.spares.retired_lines),
            mean_attempts=stats.mean_attempts,
            uncorrectable=stats.uncorrectable,
        )

    issued = 0
    for i in range(hammer_writes):
        line = i % lines
        if line in dead:
            continue
        payload = patterns if (i // lines) % 2 == 0 else ~patterns
        try:
            outcome = bank.write(line, payload.copy())
        except UncorrectableWriteError:
            stats.uncorrectable += 1
            dead.add(line)
        else:
            stats.observe(outcome)
        issued += 1
        if issued % sample_every == 0:
            points.append(snapshot(issued))
        if len(dead) == lines:
            break
    if not points or points[-1].writes_issued != issued:
        points.append(snapshot(issued))
    return points
