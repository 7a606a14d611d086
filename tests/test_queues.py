"""Tests for the bounded controller queues."""

import pytest

from repro.memctrl.queues import BoundedQueue
from repro.memctrl.request import MemRequest, ReqKind


def req(i, line=0, bank=0, kind=ReqKind.READ):
    return MemRequest(req_id=i, kind=kind, core=0, line=line, bank=bank)


class TestCapacity:
    def test_push_until_full(self):
        q = BoundedQueue(2)
        assert q.push(req(1))
        assert q.push(req(2))
        assert q.full
        assert not q.push(req(3))
        assert len(q) == 2

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            BoundedQueue(0)

    def test_occupancy(self):
        q = BoundedQueue(4)
        q.push(req(1))
        assert q.occupancy() == 1
        assert not q.empty


class TestSelection:
    def test_oldest_for_bank(self):
        q = BoundedQueue(8)
        q.push(req(1, bank=1))
        q.push(req(2, bank=0))
        q.push(req(3, bank=1))
        oldest = q.oldest_for_bank(1)
        assert oldest.req_id == 1

    def test_oldest_for_missing_bank(self):
        q = BoundedQueue(8)
        q.push(req(1, bank=0))
        assert q.oldest_for_bank(5) is None

    def test_oldest_where(self):
        q = BoundedQueue(8)
        q.push(req(1, line=10))
        q.push(req(2, line=20))
        assert q.oldest_where(lambda r: r.line == 20).req_id == 2


class TestRemovalAndLines:
    def test_remove_frees_slot(self):
        q = BoundedQueue(1)
        r = req(1)
        q.push(r)
        q.remove(r)
        assert q.empty
        assert q.push(req(2))

    def test_contains_line_multiset(self):
        q = BoundedQueue(8)
        a, b = req(1, line=5), req(2, line=5)
        q.push(a)
        q.push(b)
        q.remove(a)
        assert q.contains_line(5)       # second request still pending
        q.remove(b)
        assert not q.contains_line(5)

    def test_banks_pending(self):
        q = BoundedQueue(8)
        q.push(req(1, bank=2))
        q.push(req(2, bank=4))
        assert q.banks_pending() == {2, 4}

    def test_iteration_order_is_fifo(self):
        q = BoundedQueue(8)
        for i in range(3):
            q.push(req(i))
        assert [r.req_id for r in q] == [0, 1, 2]

    def test_banks_pending_forgets_drained_banks(self):
        q = BoundedQueue(8)
        r = req(1, bank=2)
        q.push(r)
        q.push(req(2, bank=4))
        q.remove(r)
        assert q.banks_pending() == {4}


class TestPerBankIndex:
    def test_by_bank_tracks_push_and_remove(self):
        q = BoundedQueue(8)
        assert not q.by_bank.get(3)
        r = req(1, bank=3)
        q.push(r)
        assert list(q.by_bank[3]) == [r]
        q.remove(r)
        assert not q.by_bank.get(3)
        assert q.oldest_for_bank(3) is None

    def test_for_bank_keeps_arrival_order(self):
        q = BoundedQueue(8)
        for i, bank in enumerate((1, 0, 1, 2, 1)):
            q.push(req(i, bank=bank))
        assert [r.req_id for r in q.for_bank(1)] == [0, 2, 4]
        assert list(q.for_bank(7)) == []

    def test_oldest_for_bank_after_removing_the_head(self):
        q = BoundedQueue(8)
        first, second = req(1, bank=1), req(2, bank=1)
        q.push(first)
        q.push(req(3, bank=0))
        q.push(second)
        q.remove(first)
        assert q.oldest_for_bank(1) is second
        assert [r.req_id for r in q] == [3, 2]


class TestIdentity:
    def test_remove_takes_the_given_request_not_an_equal_one(self):
        # Field-equal requests (same id, line, bank, on_done) are still
        # two requests: removing the second must leave the first queued,
        # both in the global order and in the per-bank index.
        q = BoundedQueue(8)
        first, second = req(7, line=40, bank=2), req(7, line=40, bank=2)
        q.push(first)
        q.push(second)
        q.remove(second)
        assert len(q) == 1
        assert next(iter(q)) is first
        assert q.oldest_for_bank(2) is first
        assert list(q.for_bank(2)) == [first]
        assert q.contains_line(40)

    def test_requests_compare_by_identity(self):
        a, b = req(1, line=3), req(1, line=3)
        assert a == a
        assert a != b
