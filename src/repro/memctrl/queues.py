"""Bounded request queues with a per-bank index.

The controller keeps one :class:`BoundedQueue` per direction.  A queue
holds its requests twice: one global deque in arrival order (coalescing
and arbitrary-predicate searches walk it) and one deque per bank holding
that bank's requests in the same order.  The per-bank deques make the
FCFS leg of FR-FCFS — the oldest request for a bank — and the question
"does this bank have anything pending" O(1).  Selection helpers return a
candidate without removing it, so the policy can inspect several banks
before committing.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Callable, Iterator

from repro.memctrl.request import MemRequest

__all__ = ["BoundedQueue"]


class BoundedQueue:
    """FIFO with a hard capacity (models the 32-entry R/W queues)."""

    def __init__(self, capacity: int, name: str = "queue") -> None:
        if capacity < 1:
            raise ValueError("queue capacity must be >= 1")
        self.capacity = capacity
        self.name = name
        self._items: deque[MemRequest] = deque()
        # bank -> that bank's requests, oldest first (the same objects
        # as _items, in the same relative order).  Read-only for callers:
        # a non-empty entry means the bank has a request pending.
        self.by_bank: defaultdict[int, deque[MemRequest]] = defaultdict(deque)
        # Lines with a pending write, for read forwarding (multiset:
        # the same line can be enqueued twice).
        self._line_counts: dict[int, int] = {}

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[MemRequest]:
        return iter(self._items)

    @property
    def full(self) -> bool:
        return len(self._items) >= self.capacity

    @property
    def empty(self) -> bool:
        return not self._items

    def occupancy(self) -> int:
        return len(self._items)

    # ------------------------------------------------------------------
    def push(self, req: MemRequest) -> bool:
        """Append if space is available; returns False when full."""
        if self.full:
            return False
        self._items.append(req)
        self.by_bank[req.bank].append(req)
        self._line_counts[req.line] = self._line_counts.get(req.line, 0) + 1
        return True

    def oldest_for_bank(self, bank: int) -> MemRequest | None:
        """The bank's oldest pending request, or None.  O(1)."""
        bank_items = self.by_bank.get(bank)
        return bank_items[0] if bank_items else None

    def for_bank(self, bank: int) -> Iterator[MemRequest]:
        """The bank's pending requests, oldest first."""
        return iter(self.by_bank.get(bank, ()))

    def oldest_where(
        self, pred: Callable[[MemRequest], bool]
    ) -> MemRequest | None:
        for req in self._items:
            if pred(req):
                return req
        return None

    def remove(self, req: MemRequest) -> None:
        """Remove exactly ``req`` (requests compare by identity)."""
        self._items.remove(req)
        self.by_bank[req.bank].remove(req)
        count = self._line_counts[req.line] - 1
        if count:
            self._line_counts[req.line] = count
        else:
            del self._line_counts[req.line]

    def contains_line(self, line: int) -> bool:
        """Is a request for this line pending? (read-forwarding check)"""
        return line in self._line_counts

    def banks_pending(self) -> set[int]:
        return {bank for bank, items in self.by_bank.items() if items}
