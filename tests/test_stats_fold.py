"""The controller's folded statistics against a streaming reference.

:class:`~repro.memctrl.stats.ControllerStats` buffers each completion's
latency and queue wait as floats and folds them into its
:class:`LatencyStat`\\ s and :class:`Histogram`\\ s when they are read or
when a buffer is full.  The reference below is the streaming form it
replaced: ``record`` adds every measured completion to the statistics at
once, with the one-value ``add`` of each accumulator copied here
verbatim.  The two must agree bit for bit on every field, with reads
interleaved anywhere between completions, at any buffer size, across the
warm-up boundary, on exact bin edges and one ulp below them, and in the
overflow bin.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.memctrl import stats as stats_module
from repro.memctrl.controller import ControllerStats
from repro.memctrl.request import MemRequest, ReqKind
from repro.sim.stats import Histogram, LatencyStat

READ_BIN, READ_BINS = 50.0, 512
WRITE_BIN, WRITE_BINS = 200.0, 256
ACCUMULATORS = (
    "read_latency", "write_latency", "read_wait", "write_wait",
    "read_hist", "write_hist",
)


class RefLatency:
    """``LatencyStat.add`` as a one-value stream."""

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf
        self.total = 0.0

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value


class RefHistogram:
    """``Histogram.add`` as a one-value stream."""

    def __init__(self, bin_width: float, num_bins: int) -> None:
        self.bin_width = bin_width
        self.num_bins = num_bins
        self.counts = np.zeros(num_bins + 1, dtype=np.int64)

    def add(self, value: float) -> None:
        if value < 0:
            raise ValueError("histogram values must be non-negative")
        idx = int(value // self.bin_width)
        if (idx + 1) * self.bin_width <= value:
            idx += 1
        elif idx * self.bin_width > value:
            idx -= 1
        self.counts[min(idx, self.num_bins)] += 1


class RefStats:
    """``ControllerStats.record`` as it was: every statistic per call."""

    def __init__(self, warmup_requests: int) -> None:
        self.warmup_requests = warmup_requests
        self.completed_reads = 0
        self.completed_writes = 0
        self.read_latency = RefLatency()
        self.write_latency = RefLatency()
        self.read_wait = RefLatency()
        self.write_wait = RefLatency()
        self.read_hist = RefHistogram(READ_BIN, READ_BINS)
        self.write_hist = RefHistogram(WRITE_BIN, WRITE_BINS)

    def record(self, req: MemRequest) -> None:
        if req.kind is ReqKind.READ:
            self.completed_reads += 1
            latency, wait, hist = self.read_latency, self.read_wait, self.read_hist
        else:
            self.completed_writes += 1
            latency, wait, hist = self.write_latency, self.write_wait, self.write_hist
        if self.completed_reads + self.completed_writes <= self.warmup_requests:
            return
        latency_ns = req.latency_ns
        latency.add(latency_ns)
        wait.add(req.queue_wait_ns)
        hist.add(latency_ns)


def _bits(x: float) -> str:
    """Exact identity of a float, sign of zero included."""
    return float(x).hex()


def assert_same(folded, ref) -> None:
    if isinstance(ref, RefHistogram):
        assert folded.counts.tolist() == ref.counts.tolist()
        return
    assert folded.count == ref.count
    for name in ("_mean", "_m2", "_min", "_max", "total"):
        assert _bits(getattr(folded, name)) == _bits(getattr(ref, name)), name


def _edges(width: float, bins: int) -> list[float]:
    """Every bin edge (the overflow edge included) and one ulp below it."""
    edges = [k * width for k in range(bins + 1)]
    return edges + [math.nextafter(e, -math.inf) for e in edges[1:]]


# Latencies: exact bin edges and one ulp below (for either kind's
# width), overflow values, and arbitrary non-negative floats.
latencies = st.one_of(
    st.sampled_from(_edges(READ_BIN, READ_BINS) + _edges(WRITE_BIN, WRITE_BINS)),
    st.floats(min_value=READ_BIN * READ_BINS, max_value=1e9),
    st.floats(min_value=0.0, max_value=2e4, allow_subnormal=True),
)
completions = st.tuples(
    st.booleans(),  # a read?
    st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e7)),  # enqueue
    st.floats(min_value=0.0, max_value=1.0),  # share of latency spent waiting
    latencies,
)
ops = st.lists(
    st.one_of(completions, st.sampled_from(ACCUMULATORS)), max_size=120
)


def _request(i: int, read: bool, enqueue: float, share: float,
             latency: float) -> MemRequest:
    kind = ReqKind.READ if read else ReqKind.WRITE
    req = MemRequest(i, kind, 0, i, 0)
    req.enqueue_ns = enqueue
    req.finish_ns = enqueue + latency
    req.start_ns = enqueue + share * (req.finish_ns - enqueue)
    return req


@settings(max_examples=300, deadline=None)
@given(
    ops=ops,
    warmup=st.integers(min_value=0, max_value=6),
    # Buffer sizes a short run fills, and the production one it does not.
    fold_every=st.sampled_from([1, 2, 7, stats_module._FOLD_EVERY]),
)
def test_fold_matches_streaming_record(ops, warmup, fold_every):
    folded, ref = ControllerStats(warmup_requests=warmup), RefStats(warmup)
    with mock.patch.object(stats_module, "_FOLD_EVERY", fold_every):
        for i, op in enumerate(ops):
            if isinstance(op, str):  # a read between completions
                assert_same(getattr(folded, op), getattr(ref, op))
                continue
            req = _request(i, *op)
            folded.record(req)
            ref.record(req)
            assert folded.completed_reads == ref.completed_reads
            assert folded.completed_writes == ref.completed_writes
    for name in ACCUMULATORS:
        assert_same(getattr(folded, name), getattr(ref, name))


def test_warmup_excludes_the_first_completions_in_completion_order():
    stats = ControllerStats(warmup_requests=3)
    for i, (read, latency) in enumerate(
        [(True, 10.0), (False, 20.0), (True, 30.0), (False, 40.0), (True, 50.0)]
    ):
        stats.record(_request(i, read, 0.0, 0.5, latency))
        if i == 1:  # a read inside the warm-up folds nothing
            assert stats.read_latency.count == 0
    assert stats.completed == 5
    assert (stats.read_latency.count, stats.read_latency.max) == (1, 50.0)
    assert (stats.write_latency.count, stats.write_latency.max) == (1, 40.0)
    assert stats.read_hist.total == 1 and stats.write_hist.total == 1


def test_unset_timestamps_keep_the_zero_convention():
    """A request whose timestamps were never set measures 0.0, as the
    ``latency_ns``/``queue_wait_ns`` properties define."""
    folded, ref = ControllerStats(), RefStats(0)
    req = MemRequest(0, ReqKind.WRITE, 0, 0, 0)
    req.finish_ns = 7.0
    for stats in (folded, ref):
        stats.record(req)
    for name in ACCUMULATORS:
        assert_same(getattr(folded, name), getattr(ref, name))
    assert folded.write_latency.max == 0.0


def test_negative_latency_still_raises():
    """The histogram rejects a negative latency when it is folded, and
    the latency statistics keep it, as the streaming ``add`` did."""
    stats = ControllerStats()
    req = _request(0, True, 100.0, 0.0, 0.0)
    req.finish_ns = 40.0  # completes before it was enqueued
    stats.record(req)
    with pytest.raises(ValueError):
        stats.read_hist
    assert stats.read_latency.count == 1  # folded once, not again
    assert stats.read_latency.min == -60.0
    with pytest.raises(ValueError):
        Histogram("x", bin_width=1.0).extend([1.0, -0.5])


def test_a_full_buffer_folds_in_record():
    stats = ControllerStats()
    bad = _request(0, True, 100.0, 0.0, 0.0)
    bad.finish_ns = 40.0
    with mock.patch.object(stats_module, "_FOLD_EVERY", 2):
        stats.record(_request(1, True, 0.0, 0.5, 10.0))
        with pytest.raises(ValueError):
            stats.record(bad)  # the second read fills the buffer
    assert stats.read_latency.count == 2


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_histogram_extend_rejects_what_add_rejects(bad):
    with pytest.raises(ValueError):
        Histogram("x", bin_width=1.0).add(bad)
    with pytest.raises(ValueError):
        Histogram("x", bin_width=1.0).extend([bad])


@settings(max_examples=200, deadline=None)
@given(
    # 0.1 is not a binary fraction: 0.3 // 0.1 == 2.0 needs the correction.
    st.lists(st.one_of(latencies, st.sampled_from(_edges(0.1, 40))), max_size=60),
    st.sampled_from([(READ_BIN, READ_BINS), (WRITE_BIN, WRITE_BINS), (0.1, 40)]),
)
def test_histogram_extend_equals_add(values, shape):
    ref, hist = RefHistogram(*shape), Histogram("h", *shape)
    for v in values:
        ref.add(v)
    hist.extend(values)
    assert hist.counts.tolist() == ref.counts.tolist()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(latencies, max_size=20), max_size=6))
def test_latency_extend_in_batches_equals_add(batches):
    ref, stat = RefLatency(), LatencyStat()
    for batch in batches:
        for v in batch:
            ref.add(v)
        stat.extend(batch)
        assert_same(stat, ref)
