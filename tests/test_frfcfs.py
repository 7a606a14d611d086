"""Tests for the FR-FCFS policy: read priority, drain watermarks, rows."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import MemCtrlConfig
from repro.memctrl.frfcfs import FRFCFSPolicy, RowBufferModel
from repro.memctrl.queues import BoundedQueue
from repro.memctrl.request import MemRequest, ReqKind


def req(i, line=0, bank=0, kind=ReqKind.READ):
    return MemRequest(req_id=i, kind=kind, core=0, line=line, bank=bank)


@pytest.fixture
def queues():
    return BoundedQueue(32, "read"), BoundedQueue(32, "write")


def make_policy(**kw):
    return FRFCFSPolicy(MemCtrlConfig(**kw))


class TestReadPriority:
    def test_read_wins_when_not_draining(self, queues):
        rq, wq = queues
        rq.push(req(1, bank=0))
        wq.push(req(2, bank=0, kind=ReqKind.WRITE))
        pick = make_policy().select(0, rq, wq)
        assert pick.req_id == 1

    def test_no_opportunistic_write_by_default(self, queues):
        rq, wq = queues
        wq.push(req(1, bank=0, kind=ReqKind.WRITE))
        assert make_policy().select(0, rq, wq) is None

    def test_opportunistic_write_when_enabled(self, queues):
        rq, wq = queues
        wq.push(req(1, bank=0, kind=ReqKind.WRITE))
        pick = make_policy(opportunistic_drain=True).select(0, rq, wq)
        assert pick.req_id == 1

    def test_nothing_pending_returns_none(self, queues):
        rq, wq = queues
        assert make_policy().select(0, rq, wq) is None


class TestDrainStateMachine:
    def test_enters_drain_at_high_watermark(self, queues):
        rq, wq = queues
        policy = make_policy(drain_high_watermark=4, drain_low_watermark=1)
        for i in range(4):
            wq.push(req(i, bank=0, kind=ReqKind.WRITE))
        rq.push(req(99, bank=0))
        pick = policy.select(0, rq, wq)
        assert policy.draining
        assert pick.kind is ReqKind.WRITE
        assert policy.drain_entries == 1

    def test_exits_drain_at_low_watermark(self, queues):
        rq, wq = queues
        policy = make_policy(drain_high_watermark=4, drain_low_watermark=1)
        writes = [req(i, bank=0, kind=ReqKind.WRITE) for i in range(4)]
        for w in writes:
            wq.push(w)
        policy.update_drain_state(wq)
        assert policy.draining
        for w in writes[:3]:
            wq.remove(w)
        policy.update_drain_state(wq)
        assert not policy.draining

    def test_reads_starve_during_drain(self, queues):
        rq, wq = queues
        policy = make_policy(drain_high_watermark=2, drain_low_watermark=0)
        rq.push(req(50, bank=0))
        wq.push(req(1, bank=0, kind=ReqKind.WRITE))
        wq.push(req(2, bank=0, kind=ReqKind.WRITE))
        assert policy.select(0, rq, wq).kind is ReqKind.WRITE

    def test_drain_falls_back_to_reads_for_other_banks(self, queues):
        rq, wq = queues
        policy = make_policy(drain_high_watermark=1, drain_low_watermark=0)
        wq.push(req(1, bank=3, kind=ReqKind.WRITE))
        rq.push(req(2, bank=0))
        # Bank 0 has no write; during drain it may still serve its read.
        assert policy.select(0, rq, wq).req_id == 2

    def test_force_drain_overrides_watermarks(self, queues):
        rq, wq = queues
        policy = make_policy()
        wq.push(req(1, bank=0, kind=ReqKind.WRITE))
        policy.force_drain = True
        assert policy.select(0, rq, wq).kind is ReqKind.WRITE


class TestDrainIdempotence:
    """update_drain_state with unchanged inputs is a no-op once applied.

    The controller relies on this to refresh the drain state once per
    change instead of once per idle bank.  It holds because lo < hi
    (MemCtrlConfig rejects lo == hi, where the state would toggle).
    """

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=1, max_value=32).flatmap(
            lambda cap: st.tuples(
                st.just(cap),
                st.integers(min_value=1, max_value=cap).flatmap(
                    lambda hi: st.tuples(
                        st.integers(min_value=0, max_value=hi - 1),
                        st.just(hi),
                    )
                ),
                st.integers(min_value=0, max_value=cap),
            )
        ),
        st.booleans(),
        st.booleans(),
    )
    def test_twice_equals_once(self, shape, draining, force_drain):
        cap, (lo, hi), occupancy = shape
        wq = BoundedQueue(cap, "write")
        for i in range(occupancy):
            wq.push(req(i, line=i, kind=ReqKind.WRITE))

        def fresh():
            policy = make_policy(
                write_queue_entries=cap,
                drain_high_watermark=hi,
                drain_low_watermark=lo,
            )
            policy.draining = draining
            policy.force_drain = force_drain
            return policy

        once, twice = fresh(), fresh()
        once.update_drain_state(wq)
        twice.update_drain_state(wq)
        twice.update_drain_state(wq)
        assert (twice.draining, twice.drain_entries) == (
            once.draining, once.drain_entries
        )


class TestRowBuffer:
    def test_hit_miss_latency(self):
        rb = RowBufferModel(lines_per_row=4, hit_ns=30.0, miss_ns=60.0)
        assert rb.access(0, 0) == 60.0    # cold miss opens row 0
        assert rb.access(0, 1) == 30.0    # same row -> hit
        assert rb.access(0, 5) == 60.0    # row 1 -> miss

    def test_per_bank_rows(self):
        rb = RowBufferModel(lines_per_row=4)
        rb.access(0, 0)
        assert not rb.is_hit(1, 0)

    def test_row_hit_first_selection(self):
        rb = RowBufferModel(lines_per_row=4)
        rb.access(0, 8)  # open row 2 on bank 0
        policy = FRFCFSPolicy(MemCtrlConfig(), rb)
        rq = BoundedQueue(8)
        wq = BoundedQueue(8)
        rq.push(req(1, line=0, bank=0))   # row 0: miss
        rq.push(req(2, line=9, bank=0))   # row 2: hit -> preferred
        assert policy.select(0, rq, wq).req_id == 2
