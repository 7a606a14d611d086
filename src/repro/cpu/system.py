"""The 4-core CMP: wires cores, controller and service model together.

:class:`CMPSystem` is the top of the full-system stack used by the
Fig 11-14 experiments: build it from a trace, a config and a service
model, call :meth:`run`, read the :class:`SystemResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import SystemConfig
from repro.cpu.core import CoreStats, TraceCore
from repro.memctrl.controller import ControllerStats, MemoryController, ServiceModel
from repro.memctrl.frfcfs import RowBufferModel
from repro.obs.runtime import tracer_for
from repro.obs.tracer import SimClock
from repro.sim.engine import Simulator
from repro.trace.record import OP_WRITE, Trace

__all__ = ["CMPSystem", "SystemResult"]


@dataclass
class SystemResult:
    """Everything the evaluation figures need from one run.

    ``events`` is the number of DES events fired.  A memory-controller
    kick counts as an event only when it could act: it is scheduled
    only after a transition that could let it start work or flip the
    drain state.
    """

    workload: str
    scheme: str
    runtime_ns: float
    total_instructions: int
    ipc: float
    per_core_ipc: list[float]
    controller: ControllerStats
    cores: list[CoreStats] = field(default_factory=list)
    events: int = 0

    @property
    def mean_read_latency_ns(self) -> float:
        return self.controller.read_latency.mean

    @property
    def mean_write_latency_ns(self) -> float:
        return self.controller.write_latency.mean


class CMPSystem:
    """Builds and runs one full-system simulation."""

    def __init__(
        self,
        trace: Trace,
        config: SystemConfig,
        service: ServiceModel,
        *,
        scheme_name: str = "unknown",
        row_buffer: RowBufferModel | None = None,
        enable_forwarding: bool = True,
        warmup_requests: int = 0,
    ) -> None:
        self.trace = trace
        self.config = config
        self.scheme_name = scheme_name
        self.sim = Simulator()
        # Observability: rebind the shared tracer onto this run's DES
        # clock so every component's events land in simulated time, and
        # hand the tracer to the engine for per-event instants.  Must
        # happen before the controller resolves its own tracer.
        self.tracer = tracer_for(config)
        if self.tracer is not None:
            if config.trace.clock == "sim":
                self.tracer.bind_clock(SimClock(self.sim))
            self.sim.tracer = self.tracer
        self.controller = MemoryController(
            self.sim,
            config,
            service,
            row_buffer=row_buffer,
            enable_forwarding=enable_forwarding,
            warmup_requests=warmup_requests,
        )
        # Global write ordinals: the key into per-write service tables.
        ops = trace.records["op"]
        write_ord = np.where(
            ops == OP_WRITE, np.cumsum(ops == OP_WRITE) - 1, -1
        ).astype(np.int64)

        self.cores: list[TraceCore] = []
        for core_id in range(config.cpu.num_cores):
            mask = trace.records["core"] == core_id
            self.cores.append(
                TraceCore(
                    self.sim,
                    core_id,
                    trace.records[mask],
                    write_ord[mask],
                    self.controller,
                    config.cpu,
                    on_finish=self._core_finished,
                )
            )

    def _core_finished(self, core: TraceCore) -> None:
        """Once every core retires, flush the residual write queue — the
        non-opportunistic drain policy would otherwise strand writes that
        never reached the high watermark."""
        if all(c.finished for c in self.cores):
            self.controller.flush_writes()

    # ------------------------------------------------------------------
    def run(self, max_events: int | None = None) -> SystemResult:
        """Run to completion (all cores done, all queues drained)."""
        for core in self.cores:
            core.start()
        self.sim.run(max_events=max_events)

        if not all(core.finished for core in self.cores):
            raise RuntimeError("simulation drained but a core never finished")

        cycle_ns = self.config.cpu.cycle_ns
        runtime = max(core.stats.finish_ns for core in self.cores)
        total_instr = sum(core.stats.instructions for core in self.cores)
        per_core_ipc = [core.stats.ipc(cycle_ns) for core in self.cores]
        # System IPC: aggregate committed instructions over the makespan.
        ipc = total_instr / (runtime / cycle_ns) if runtime > 0 else 0.0
        return SystemResult(
            workload=self.trace.workload,
            scheme=self.scheme_name,
            runtime_ns=runtime,
            total_instructions=total_instr,
            ipc=ipc,
            per_core_ipc=per_core_ipc,
            controller=self.controller.stats,
            cores=[core.stats for core in self.cores],
            events=self.sim.events_fired,
        )
