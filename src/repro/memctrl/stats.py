"""The memory controller's per-run statistics.

:meth:`ControllerStats.record` runs once per completed request, so it
does the least it can: it counts the completion and buffers its latency
and queue wait as floats.  The latency, wait and histogram accumulators
of :mod:`repro.sim.stats` are folded from those buffers in batches,
which gives bit-for-bit the state of one ``add`` per completion in
completion order.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

from repro.memctrl.request import MemRequest, ReqKind
from repro.sim.stats import Histogram, LatencyStat

__all__ = ["ControllerStats"]

_READ = ReqKind.READ

#: Measured completions of one kind buffered before they are folded.
#: Bounded buffers keep a run's resident set flat: buffers that grew
#: with the run raised the peak RSS of eight DES cells run in one
#: process by ≈0.5 MB.
_FOLD_EVERY = 1024


class _KindStats:
    """One request kind's statistics and its buffered completions."""

    __slots__ = ("latency_ns", "wait_ns", "latency", "wait", "hist")

    def __init__(self, kind: str, bin_width: float, num_bins: int) -> None:
        self.latency_ns = array("d")
        self.wait_ns = array("d")
        self.latency = LatencyStat(kind)
        self.wait = LatencyStat(f"{kind}_wait")
        # Tail-latency histogram (percentiles via Histogram.percentile).
        self.hist = Histogram(kind, bin_width=bin_width, num_bins=num_bins)

    def fold(self) -> _KindStats:
        """Fold the buffered completions into the statistics, once."""
        latency_ns = self.latency_ns
        if latency_ns:
            self.latency.extend(latency_ns)
            self.wait.extend(self.wait_ns)
            try:
                self.hist.extend(latency_ns)  # raises on a negative latency
            finally:
                del latency_ns[:]
                del self.wait_ns[:]
        return self


@dataclass(eq=False)
class ControllerStats:
    """Aggregate controller metrics for one run.

    ``warmup_requests`` implements the standard measurement methodology:
    the first N completions (cold caches, empty queues) are counted for
    conservation but excluded from the latency statistics.

    :meth:`record` counts a completion and buffers its latency and queue
    wait.  A kind's buffer is folded into its latency, wait and
    histogram statistics when any of them is read, or when it holds
    ``_FOLD_EVERY`` completions (:meth:`LatencyStat.extend`,
    :meth:`Histogram.extend`).
    """

    warmup_requests: int = 0
    completed_reads: int = 0
    completed_writes: int = 0
    forwarded_reads: int = 0
    read_stalls: int = 0
    write_stalls: int = 0
    write_pauses: int = 0
    coalesced_writes: int = 0
    subarray_reads: int = 0
    bank_busy_ns: dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._reads = _KindStats("read", bin_width=50.0, num_bins=512)
        self._writes = _KindStats("write", bin_width=200.0, num_bins=256)
        # The buffers themselves, for record(): folding empties them in
        # place, so these references stay valid.
        self._read_latency_ns = self._reads.latency_ns
        self._read_wait_ns = self._reads.wait_ns
        self._write_latency_ns = self._writes.latency_ns
        self._write_wait_ns = self._writes.wait_ns

    @property
    def read_latency(self) -> LatencyStat:
        return self._reads.fold().latency

    @property
    def write_latency(self) -> LatencyStat:
        return self._writes.fold().latency

    @property
    def read_wait(self) -> LatencyStat:
        return self._reads.fold().wait

    @property
    def write_wait(self) -> LatencyStat:
        return self._writes.fold().wait

    @property
    def read_hist(self) -> Histogram:
        return self._reads.fold().hist

    @property
    def write_hist(self) -> Histogram:
        return self._writes.fold().hist

    @property
    def completed(self) -> int:
        """All completions, warmup included (conservation checks)."""
        return self.completed_reads + self.completed_writes

    def record(self, req: MemRequest) -> None:
        """Count one completion and buffer its latency and queue wait."""
        if req.kind is _READ:
            self.completed_reads += 1
            latencies, waits = self._read_latency_ns, self._read_wait_ns
        else:
            self.completed_writes += 1
            latencies, waits = self._write_latency_ns, self._write_wait_ns
        if self.completed_reads + self.completed_writes <= self.warmup_requests:
            return  # warmup: counted for conservation, excluded from stats
        enqueue_ns = req.enqueue_ns
        start_ns = req.start_ns
        finish_ns = req.finish_ns
        if enqueue_ns < 0.0 or start_ns < 0.0 or finish_ns < 0.0:
            # A timestamp never set: the properties' 0.0 convention.
            latencies.append(req.latency_ns)
            waits.append(req.queue_wait_ns)
        else:
            latencies.append(finish_ns - enqueue_ns)
            waits.append(start_ns - enqueue_ns)
        if len(latencies) >= _FOLD_EVERY:
            if latencies is self._read_latency_ns:
                self._reads.fold()
            else:
                self._writes.fold()
