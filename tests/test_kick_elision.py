"""Differential test: kicks scheduled only when they can act vs. always.

:meth:`MemoryController._schedule_kick` reserves the engine seq of an
instant's kick and fills it only after a transition that could make
the kick act.  The reference below schedules a heap event for every
kick, as the controller did before.  Both must give every request the
same ``(start_ns, finish_ns)``, the same counters, drain entries and
per-bank busy time; only the number of fired events may fall.

Two kinds of run: random arrivals over the controller's feature space
(the reference-kick test's harness), and full-system runs on traces
with zero-instruction gaps under every golden controller variant.  A
zero gap makes a core issue its next record at the same instant,
under a seq taken after the kick's reservation, so a needed kick that
took a fresh seq instead of its reserved one would fire after that
record rather than before it.  One more full-system cell keeps its
trace's own gaps under write pausing, where a kick that skipped the
banks before the one that asked for it moved requests.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import MemCtrlConfig, PCMOrganization, default_config
from repro.cpu.system import CMPSystem
from repro.experiments.fullsystem import (
    FunctionalServiceModel,
    PrecomputedServiceModel,
    precompute_write_service,
)
from repro.memctrl.controller import MemoryController
from repro.memctrl.frfcfs import RowBufferModel
from repro.trace.synthetic import generate_trace
from tests.test_controller_reference_kick import (
    arrival_lists,
    controller_configs,
    simulate,
)
from tests.test_des_golden import VARIANTS


class HeapKickController(MemoryController):
    """Every kick is a heap event, whether or not it can act."""

    def _schedule_kick(self, bank: int | None = None) -> None:
        if not self._kick_scheduled:
            self._kick_scheduled = True
            self.sim.schedule(0.0, self._kick)


def _assert_same_schedule(production: dict, reference: dict) -> None:
    assert production["events"] <= reference["events"]
    production = {k: v for k, v in production.items() if k != "events"}
    reference = {k: v for k, v in reference.items() if k != "events"}
    assert production == reference


@settings(max_examples=150, deadline=None)
@given(
    cfg=controller_configs(),
    arrivals=arrival_lists,
    write_service=st.lists(
        st.sampled_from([100.0, 250.0, 400.0, 1000.0]), min_size=80, max_size=80
    ),
    row_buffer=st.booleans(),
)
def test_elided_kicks_keep_every_request_time(
    cfg, arrivals, write_service, row_buffer
):
    arrivals.sort(key=lambda a: a[0])
    reference = simulate(
        HeapKickController, cfg, arrivals, write_service, row_buffer
    )
    production = simulate(
        MemoryController, cfg, arrivals, write_service, row_buffer
    )
    assert len(production["times"]) == len(arrivals)
    _assert_same_schedule(production, reference)


def test_waiter_submit_inside_a_kick_schedules_the_follow_up():
    """A waiter's submit during a kick fills the follow-up kick even when
    its own transition cannot act: the kick's later starts leave a drain
    exit pending, and only the follow-up kick performs it in time.

    Banks 4-7 read until t=50.  At t=10 four writes fill the queue (drain
    entry at hi=4) and a fifth, for busy bank 4, stalls.  The kick starts
    banks 1-3; the first start frees the stalled write, and the last one
    brings occupancy to lo=2 with no idle bank left to refresh at (bank 0
    came first).  The follow-up kick exits drain at t=10, so the write
    for bank 4 waits past the t=20 write; without it, drain mode would
    survive that write and start bank 4's write at t=50.
    """
    cfg = default_config().replace(
        memctrl=MemCtrlConfig(
            write_queue_entries=4,
            drain_high_watermark=4,
            drain_low_watermark=2,
        )
    )
    arrivals = [(0.0, line, False) for line in (4, 5, 6, 7)]
    arrivals += [(10.0, line, True) for line in (1, 2, 3, 9, 12)]
    arrivals.append((20.0, 17, True))
    reference = simulate(HeapKickController, cfg, arrivals, [1000.0] * 6, False)
    production = simulate(MemoryController, cfg, arrivals, [1000.0] * 6, False)
    _assert_same_schedule(production, reference)
    assert production["times"][8][0] > 50.0  # bank 4's write (line 12)


ZERO_GAP_CELLS = [
    (scheme, workload, variant)
    for variant in VARIANTS
    for scheme, workload in (("dcw", "vips"), ("tetris", "ferret"))
]


def _run_system(
    controller_cls, scheme, workload, variant,
    *, requests_per_core=150, seed=3, zero_gaps=True,
) -> dict:
    """One full-system run; ``zero_gaps`` sets four gaps in five to 0."""
    mc_kwargs, subarrays, row_buffer, functional = VARIANTS[variant]
    config = default_config().replace(
        memctrl=MemCtrlConfig(**mc_kwargs),
        organization=PCMOrganization(subarrays_per_bank=subarrays),
    )
    trace = generate_trace(workload, requests_per_core=requests_per_core, seed=seed)
    if zero_gaps:
        gaps = trace.records["gap"]
        gaps[np.arange(len(gaps)) % 5 != 0] = 0
    if functional:
        service = FunctionalServiceModel(trace, scheme, config)
    else:
        service = PrecomputedServiceModel(
            precompute_write_service(trace, scheme, config), config
        )
    system = CMPSystem(
        trace, config, service, scheme_name=scheme,
        row_buffer=RowBufferModel() if row_buffer else None,
    )
    # Built here, so a subclass is enough: swap the controller's class.
    system.controller.__class__ = controller_cls
    times: dict[int, tuple[float, float]] = {}
    stats = system.controller.stats
    record = stats.record

    def timing_record(req) -> None:
        times[req.req_id] = (req.start_ns, req.finish_ns)
        record(req)

    stats.record = timing_record
    result = system.run()
    return {
        "times": times,
        "events": result.events,
        "runtime_ns": result.runtime_ns,
        "drain_entries": system.controller.policy.drain_entries,
        "counters": (
            stats.completed_reads, stats.completed_writes,
            stats.forwarded_reads, stats.read_stalls, stats.write_stalls,
            stats.write_pauses, stats.coalesced_writes, stats.subarray_reads,
        ),
        "bank_busy_ns": stats.bank_busy_ns,
    }


@pytest.mark.parametrize(
    "scheme,workload,variant",
    ZERO_GAP_CELLS,
    ids=[f"{v}/{s}/{w}" for s, w, v in ZERO_GAP_CELLS],
)
def test_zero_gap_traces_keep_every_request_time(scheme, workload, variant):
    reference = _run_system(HeapKickController, scheme, workload, variant)
    production = _run_system(MemoryController, scheme, workload, variant)
    assert len(production["times"]) == 4 * 150
    _assert_same_schedule(production, reference)


def test_a_kick_visits_every_bank_under_write_pausing():
    """A kick that began its pass at a paused bank skipped the drain
    refresh at an idle bank before it: the paused bank is served without
    one, so a pending drain exit waited and writes issued in drain mode
    that should have waited.  On this cell 515 requests moved and the
    pauses rose from 155 to 163."""
    run = {"requests_per_core": 200, "seed": 20160816, "zero_gaps": False}
    reference = _run_system(
        HeapKickController, "tetris", "ferret", "pausing", **run
    )
    production = _run_system(MemoryController, "tetris", "ferret", "pausing", **run)
    _assert_same_schedule(production, reference)
