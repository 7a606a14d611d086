"""Fastpath envelope: which cells the analytic lane may price.

Every registered scheme is priced (the write-service table is shared
with the DES lane), so the envelope is about the system, not the scheme.
The queueing model (:mod:`repro.fastpath.pricer`) models the *paper's*
controller: FIFO drain between fixed watermarks, one outstanding read
per core, one subarray per bank, no fault injection.  Every ablation
knob that leaves that regime — write pausing, coalescing, SJF drain,
opportunistic drain, extra subarrays, memory-level parallelism, faults —
falls back to the DES.  :func:`classify` encodes the boundary as data
(a reason list), so callers can report *why* a cell routed to the DES
and tests can probe each condition independently.

The decision is conservative by design: anything not explicitly
verified against the oracle corpus is outside.  Being outside is never
an error under ``--fastpath auto`` — it just means the slow lane — and
always an error under ``--fastpath force``
(:class:`FastpathEnvelopeError`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import SystemConfig

__all__ = [
    "EnvelopeDecision",
    "FastpathEnvelopeError",
    "classify",
]


@dataclass(frozen=True)
class EnvelopeDecision:
    """Outcome of envelope classification for one cell.

    ``reasons`` is empty iff ``inside`` — each entry is a short
    machine-stable tag (``"faults-enabled"``, ``"write-pausing"``, ...)
    recorded in the run certificate.
    """

    inside: bool
    reasons: tuple[str, ...] = ()


class FastpathEnvelopeError(ValueError):
    """A cell was forced onto the fastpath lane outside the envelope."""

    def __init__(self, scheme: str, workload: str, reasons: tuple[str, ...]):
        self.scheme = scheme
        self.workload = workload
        self.reasons = reasons
        super().__init__(
            f"cell ({workload}, {scheme}) is outside the fastpath envelope "
            f"({', '.join(reasons)}); use --fastpath auto or off"
        )


def classify(config: SystemConfig, scheme: str) -> EnvelopeDecision:
    """Decide whether one (config, scheme) cell is analytically priceable.

    Every registered scheme is priced, so only the configuration decides.
    """
    reasons: list[str] = []

    if config.faults.enabled:
        reasons.append("faults-enabled")
    if config.trace.enabled:
        reasons.append("obs-tracing-enabled")

    mc = config.memctrl
    if mc.write_pausing:
        reasons.append("write-pausing")
    if mc.write_coalescing:
        reasons.append("write-coalescing")
    if mc.opportunistic_drain:
        reasons.append("opportunistic-drain")
    if mc.drain_order != "fifo":
        reasons.append("drain-order-not-fifo")

    if config.organization.subarrays_per_bank != 1:
        reasons.append("subarray-parallelism")
    if config.cpu.max_outstanding_reads != 1:
        reasons.append("memory-level-parallelism")
    if config.cpu.num_cores > mc.read_queue_entries:
        reasons.append("read-queue-pressure")

    # The Algorithm-2 burst splitter needs headroom for one cell's
    # current (SET = 1, RESET = L); below that the packer itself raises.
    if config.bank_power_budget < max(1.0, config.L):
        reasons.append("budget-below-cell-cost")

    return EnvelopeDecision(inside=not reasons, reasons=tuple(reasons))
