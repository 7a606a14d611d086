"""Differential test: the production kick vs. a plain per-bank reference.

:meth:`MemoryController._kick` skips ``policy.select`` on banks that
cannot start anything and refreshes the drain state only when it may
have changed.  The reference below is the straightforward loop: every
idle, non-paused bank asks the policy, which refreshes the drain state
every time.  On random read/write arrivals — with stalls on small
queues, so waiter callbacks run in the middle of a kick — and random
controller features, both must produce the same ``(start_ns,
finish_ns)`` for every request, the same counters and the same number
of drain-mode entries.
"""

from hypothesis import given, settings, strategies as st

from repro.config import MemCtrlConfig, PCMOrganization, default_config
from repro.memctrl.controller import MemoryController
from repro.memctrl.frfcfs import RowBufferModel
from repro.memctrl.request import MemRequest, ReqKind
from repro.sim.engine import Simulator


class ReferenceKickController(MemoryController):
    """The controller with the plain per-bank ``select`` loop."""

    def _kick(self) -> None:
        self._kick_scheduled = False
        for bank in range(self.num_banks):
            if self.bank_busy[bank]:
                if self.subarrays > 1:
                    self._try_read_under_write(bank)
                continue
            if self._paused[bank] is not None:
                read = self.read_queue.oldest_for_bank(bank)
                if read is not None:
                    self._start_service(bank, read)
                else:
                    self._resume_paused(bank)
                continue
            req = self.policy.select(bank, self.read_queue, self.write_queue)
            if req is None:
                continue
            self._start_service(bank, req)


class TableService:
    """Per-write service times from a table; exact SJF predictions."""

    def __init__(self, write_ns: list[float]) -> None:
        self._write_ns = write_ns

    def read_ns(self, req: MemRequest) -> float:
        return 50.0

    def write_ns(self, req: MemRequest) -> float:
        return self._write_ns[req.write_idx]

    def predict_write_ns(self, req: MemRequest) -> float:
        return self._write_ns[req.write_idx]


def simulate(controller_cls, cfg, arrivals, write_ns, row_buffer):
    """Replay ``arrivals`` (time, line, is_write); rejected submissions
    wait for a slot and retry, like a stalled core."""
    sim = Simulator()
    ctrl = controller_cls(
        sim, cfg, TableService(write_ns),
        row_buffer=RowBufferModel(lines_per_row=4) if row_buffer else None,
    )
    times: dict[int, tuple[float, float]] = {}

    def done(req: MemRequest) -> None:
        times[req.req_id] = (req.start_ns, req.finish_ns)

    def submit(req: MemRequest) -> None:
        if ctrl.submit(req):
            return
        if req.kind is ReqKind.READ:
            ctrl.stall_until_read_slot(lambda: submit(req))
        else:
            ctrl.stall_until_write_slot(lambda: submit(req))

    writes = 0
    for i, (t, line, is_write) in enumerate(arrivals):
        req = MemRequest(
            req_id=i,
            kind=ReqKind.WRITE if is_write else ReqKind.READ,
            core=0,
            line=line,
            bank=line % ctrl.num_banks,
            write_idx=writes if is_write else -1,
            on_done=done,
        )
        writes += is_write
        sim.at(t, submit, req)
    sim.run()
    ctrl.flush_writes()
    sim.run()
    stats = ctrl.stats
    return {
        "times": times,
        "now": sim.now,
        "events": sim.events_fired,
        "drain_entries": ctrl.policy.drain_entries,
        "counters": (
            stats.completed_reads, stats.completed_writes,
            stats.forwarded_reads, stats.read_stalls, stats.write_stalls,
            stats.write_pauses, stats.coalesced_writes, stats.subarray_reads,
        ),
        "bank_busy_ns": stats.bank_busy_ns,
    }


@st.composite
def controller_configs(draw):
    read_cap = draw(st.integers(min_value=1, max_value=8))
    write_cap = draw(st.integers(min_value=1, max_value=8))
    hi = draw(st.integers(min_value=1, max_value=write_cap))
    lo = draw(st.integers(min_value=0, max_value=hi - 1))
    return default_config().replace(
        memctrl=MemCtrlConfig(
            read_queue_entries=read_cap,
            write_queue_entries=write_cap,
            drain_high_watermark=hi,
            drain_low_watermark=lo,
            opportunistic_drain=draw(st.booleans()),
            write_pausing=draw(st.booleans()),
            write_coalescing=draw(st.booleans()),
            drain_order=draw(st.sampled_from(["fifo", "sjf"])),
        ),
        organization=PCMOrganization(
            subarrays_per_bank=draw(st.sampled_from([1, 2]))
        ),
    )


arrival_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3000).map(float),
        st.integers(min_value=0, max_value=31),
        st.booleans(),
    ),
    min_size=1,
    max_size=80,
)


@settings(max_examples=150, deadline=None)
@given(
    cfg=controller_configs(),
    arrivals=arrival_lists,
    write_service=st.lists(
        st.sampled_from([100.0, 250.0, 400.0, 1000.0]), min_size=80, max_size=80
    ),
    row_buffer=st.booleans(),
)
def test_kick_matches_reference(cfg, arrivals, write_service, row_buffer):
    arrivals.sort(key=lambda a: a[0])
    reference = simulate(
        ReferenceKickController, cfg, arrivals, write_service, row_buffer
    )
    production = simulate(
        MemoryController, cfg, arrivals, write_service, row_buffer
    )
    assert len(production["times"]) == len(arrivals)
    assert production == reference
