"""FR-FCFS selection policy and the optional row-buffer model.

FR-FCFS ("first-ready, first-come-first-served") prefers requests that
are *ready* — targeting an idle bank, and with a row buffer, an open row
— breaking ties by age.  The paper's variant adds the classic write-drain
twist: reads have priority, and writes are serviced in batches when the
write queue fills ("services the write requests only when the write
queue is full").

The paper's PCM timing is flat (50 ns reads, Table II), so the default
policy has no row buffer and first-ready reduces to bank-idleness; the
:class:`RowBufferModel` is provided for the row-locality ablation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import MemCtrlConfig
from repro.memctrl.queues import BoundedQueue
from repro.memctrl.request import MemRequest, ReqKind

__all__ = ["FRFCFSPolicy", "RowBufferModel"]


@dataclass
class RowBufferModel:
    """Optional per-bank open-row tracking.

    ``hit_ns`` / ``miss_ns`` replace the flat read latency when enabled.
    The paper's configuration does not model one (reads are flat 50 ns);
    this exists for the sensitivity bench.
    """

    lines_per_row: int = 32
    hit_ns: float = 30.0
    miss_ns: float = 60.0
    open_rows: dict[int, int] = field(default_factory=dict)

    def row_of(self, line: int) -> int:
        return line // self.lines_per_row

    def is_hit(self, bank: int, line: int) -> bool:
        return self.open_rows.get(bank) == self.row_of(line)

    def access(self, bank: int, line: int) -> float:
        hit = self.is_hit(bank, line)
        self.open_rows[bank] = self.row_of(line)
        return self.hit_ns if hit else self.miss_ns


class FRFCFSPolicy:
    """Chooses the next request for an idle bank.

    Drain-mode state machine: enter when write occupancy reaches the high
    watermark, leave when it falls to the low watermark.  While draining,
    writes win; otherwise reads win and writes go out only opportunistically
    (when the bank has no read waiting and opportunistic drain is on).
    """

    def __init__(
        self,
        config: MemCtrlConfig,
        row_buffer: RowBufferModel | None = None,
        write_predictor=None,
    ) -> None:
        """``write_predictor(req) -> ns`` enables the "sjf" drain order:
        among a bank's pending writes the shortest predicted service goes
        first.  Tetris makes the prediction exact (the analysis stage has
        already run); without a predictor the order falls back to FIFO."""
        self.config = config
        self.row_buffer = row_buffer
        self.write_predictor = write_predictor
        self.draining = False
        self.drain_entries = 0  # times drain mode was entered (stats)
        # End-of-run flush: once set, writes drain unconditionally (the
        # cores have finished; nothing is left to prioritize).
        self.force_drain = False

    # ------------------------------------------------------------------
    def update_drain_state(self, write_queue: BoundedQueue) -> None:
        if self.force_drain:
            self.draining = True
            return
        occ = write_queue.occupancy()
        if not self.draining and occ >= self.config.drain_high_watermark:
            self.draining = True
            self.drain_entries += 1
        elif self.draining and occ <= self.config.drain_low_watermark:
            self.draining = False

    def _first_ready(self, queue: BoundedQueue, bank: int) -> MemRequest | None:
        """Row-hit-first within the bank when a row buffer exists,
        otherwise plain oldest-for-bank (flat-timing degeneration)."""
        if self.row_buffer is not None:
            for req in queue.for_bank(bank):
                if self.row_buffer.is_hit(bank, req.line):
                    return req
        return queue.oldest_for_bank(bank)

    def _next_write(self, write_queue: BoundedQueue, bank: int) -> MemRequest | None:
        if (
            self.config.drain_order == "sjf"
            and self.write_predictor is not None
        ):
            best: MemRequest | None = None
            best_ns = 0.0
            for req in write_queue.for_bank(bank):
                ns = self.write_predictor(req)
                if best is None or ns < best_ns:
                    best, best_ns = req, ns
            return best
        return self._first_ready(write_queue, bank)

    def select(
        self,
        bank: int,
        read_queue: BoundedQueue,
        write_queue: BoundedQueue,
    ) -> MemRequest | None:
        """Pick the next request for an idle bank (or None).

        Refreshes the drain state, then answers as :meth:`choose`.
        """
        self.update_drain_state(write_queue)
        return self.choose(bank, read_queue, write_queue)

    def choose(
        self,
        bank: int,
        read_queue: BoundedQueue,
        write_queue: BoundedQueue,
    ) -> MemRequest | None:
        """Pick as :meth:`select` does, minus the drain refresh.

        For a caller that has just refreshed against the same write
        queue (the controller's kick).

        Candidate lookups are lazy: the losing queue is only consulted
        when the winning queue has no candidate for the bank.  The FIFO
        lookup is O(1) (the queues index requests by bank); the row-hit
        and SJF searches walk only the bank's own requests.

        The answer is None exactly when the bank has no pending read and
        either no pending write or the policy is neither draining nor
        opportunistic, whatever the drain order or row buffer; the
        controller relies on this to skip banks without calling here.
        """
        if self.draining:
            write = self._next_write(write_queue, bank)
            if write is not None:
                return write
            return self._first_ready(read_queue, bank)
        read = self._first_ready(read_queue, bank)
        if read is not None:
            return read
        if self.config.opportunistic_drain:
            return self._next_write(write_queue, bank)
        return None
