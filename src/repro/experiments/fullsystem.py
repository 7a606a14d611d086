"""Full-system experiment plumbing: service models + the Fig 11-14 runs.

Two interchangeable :class:`~repro.memctrl.controller.ServiceModel`
implementations:

* :class:`PrecomputedServiceModel` — the fast path.  Before the DES runs,
  :func:`precompute_write_service` (re-exported from
  :mod:`repro.schemes.pricing`, the table both sweep lanes share) prices
  every write of the trace in one vectorized pass.
* :class:`FunctionalServiceModel` — the slow path.  A live
  :class:`~repro.pcm.device.PCMDevice` with realized payloads services
  every request through the actual scheme objects; used by integration
  tests to validate the fast path end to end.
"""

from __future__ import annotations

import numpy as np

from repro.config import SystemConfig, default_config
from repro.cpu.system import CMPSystem, SystemResult
from repro.memctrl.request import MemRequest
from repro.pcm.device import PCMDevice
from repro.schemes import get_scheme
from repro.schemes.pricing import WriteServiceTable, precompute_write_service
from repro.trace.content import realize_payload
from repro.trace.record import Trace
from repro.verify import runtime_verification_enabled

__all__ = [
    "PrecomputedServiceModel",
    "FunctionalServiceModel",
    "precompute_write_service",
    "run_fullsystem",
]


class PrecomputedServiceModel:
    """Prices requests from a :class:`WriteServiceTable`."""

    def __init__(self, table: WriteServiceTable, config: SystemConfig) -> None:
        self.table = table
        self.t_read = config.timings.t_read_ns
        # Python floats, converted once: write_ns runs per serviced write.
        self._service_ns: list[float] = table.service_ns.tolist()

    def read_ns(self, req: MemRequest) -> float:
        return self.t_read

    def write_ns(self, req: MemRequest) -> float:
        if req.write_idx < 0:
            raise ValueError(f"write request without a write index: {req}")
        return self._service_ns[req.write_idx]

    def predict_write_ns(self, req: MemRequest) -> float:
        """Side-effect-free prediction (enables the SJF drain order)."""
        return self.write_ns(req)


class FunctionalServiceModel:
    """Prices requests by actually performing them on a PCM device.

    Payloads are realized lazily against the device's live contents using
    a per-write seeded RNG, so pricing is deterministic and independent
    of bank service interleaving (per-line write order is preserved by
    the FCFS-per-bank controller).
    """

    def __init__(
        self,
        trace: Trace,
        scheme_name: str,
        config: SystemConfig | None = None,
        *,
        verify_cells: bool = False,
    ) -> None:
        self.config = config if config is not None else default_config()
        self.trace = trace
        self.device = PCMDevice(
            lambda cfg: get_scheme(scheme_name, cfg),
            self.config,
            verify_cells=verify_cells,
        )
        self.outcomes: dict[int, object] = {}

    def read_ns(self, req: MemRequest) -> float:
        _, t = self.device.read(req.line)
        return t

    def write_ns(self, req: MemRequest) -> float:
        w = req.write_idx
        if w < 0:
            raise ValueError(f"write request without a write index: {req}")
        bank = self.device.bank_for(req.line)
        old_logical = bank.image.read_logical(req.line)
        rng = np.random.default_rng(
            np.random.SeedSequence([self.trace.seed, w])
        )
        new_logical = realize_payload(
            rng, old_logical, self.trace.write_counts[w], self.config.data_unit_bits
        )
        outcome = bank.write(req.line, new_logical)
        self.outcomes[w] = outcome
        return outcome.service_ns


def run_fullsystem(
    trace: Trace,
    scheme_name: str,
    config: SystemConfig | None = None,
    *,
    functional: bool = False,
    enable_forwarding: bool = True,
    table: WriteServiceTable | None = None,
    warmup_requests: int = 0,
) -> SystemResult:
    """One complete Fig 11-14 style run: trace x scheme -> SystemResult.

    Pass a pre-built ``table`` to avoid re-pricing the trace when the
    caller already has one (the grid runner does).  Under runtime
    verification (:func:`repro.verify.runtime_verification_enabled`)
    the result is checked with
    :func:`repro.analysis.validation.validate_system_result`: request
    and instruction conservation against the trace, and every bank's
    busy time within the run's horizon.
    """
    config = config if config is not None else default_config()
    if functional:
        service = FunctionalServiceModel(trace, scheme_name, config)
    else:
        if table is None:
            table = precompute_write_service(trace, scheme_name, config)
        service = PrecomputedServiceModel(table, config)
    system = CMPSystem(
        trace,
        config,
        service,
        scheme_name=scheme_name,
        enable_forwarding=enable_forwarding,
        warmup_requests=warmup_requests,
    )
    result = system.run()
    if runtime_verification_enabled(config):
        from repro.analysis.validation import validate_system_result

        validate_system_result(result, trace, config)
    return result
