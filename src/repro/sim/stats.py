"""Statistics collection for simulation runs.

Accumulators are streaming (O(1) memory for the moments, fixed bins for
the histogram) because the Fig 11-14 runs see hundreds of thousands of
requests.  Each takes one value (``add``) or a batch (``extend``); a
batch gives bit-for-bit the state of one ``add`` per value in order.
Host-side counters and timings live in
:class:`repro.obs.MetricRegistry`, not here.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

__all__ = ["FaultStats", "LatencyStat", "Histogram", "TimeSeries"]


@dataclass
class FaultStats:
    """Streaming aggregate of the fault/retry facet of write outcomes.

    Feeds the fault-sweep experiment and the CLI summary: every write
    outcome is folded in via :meth:`observe`, so the aggregate never
    stores per-write records (the sweeps replay full traces).
    """

    writes: int = 0
    retried_writes: int = 0
    total_attempts: int = 0
    retried_bits: int = 0
    retry_units: float = 0.0
    verify_ns: float = 0.0
    degraded_writes: int = 0
    retired_writes: int = 0
    uncorrectable: int = 0

    def observe(self, outcome) -> None:
        """Fold one write outcome (any object with the retry fields)."""
        self.writes += 1
        attempts = int(getattr(outcome, "attempts", 1))
        self.total_attempts += attempts
        if attempts > 1:
            self.retried_writes += 1
        self.retried_bits += int(getattr(outcome, "retried_bits", 0))
        self.retry_units += float(getattr(outcome, "retry_units", 0.0))
        self.verify_ns += float(getattr(outcome, "verify_ns", 0.0))
        if getattr(outcome, "degraded", False):
            self.degraded_writes += 1
        if getattr(outcome, "retired", False):
            self.retired_writes += 1

    @property
    def mean_attempts(self) -> float:
        return self.total_attempts / self.writes if self.writes else 0.0

    @property
    def retry_rate(self) -> float:
        return self.retried_writes / self.writes if self.writes else 0.0

    def summary(self) -> dict[str, float]:
        return {
            "writes": self.writes,
            "retried_writes": self.retried_writes,
            "mean_attempts": self.mean_attempts,
            "retry_rate": self.retry_rate,
            "retried_bits": self.retried_bits,
            "retry_units": self.retry_units,
            "verify_ns": self.verify_ns,
            "degraded_writes": self.degraded_writes,
            "retired_writes": self.retired_writes,
            "uncorrectable": self.uncorrectable,
        }


@dataclass
class TimeSeries:
    """Sparse (time, value) samples of a signal (e.g. queue occupancy).

    Samples append in O(1); :meth:`resample` turns the step function
    into a fixed-width vector (time-weighted) for plotting/sparklines.
    """

    name: str = "series"
    times: list = field(default_factory=list)
    values: list = field(default_factory=list)

    def sample(self, time: float, value: float) -> None:
        if self.times and time < self.times[-1]:
            raise ValueError("samples must be time-ordered")
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def resample(self, buckets: int = 64) -> np.ndarray:
        """Time-weighted mean of the step function over equal buckets."""
        if buckets < 1:
            raise ValueError("need at least one bucket")
        if not self.times:
            return np.zeros(buckets)
        t = np.asarray(self.times, dtype=np.float64)
        v = np.asarray(self.values, dtype=np.float64)
        t0, t1 = t[0], t[-1]
        if t1 <= t0:
            return np.full(buckets, v[-1])
        out = np.zeros(buckets)
        weight = np.zeros(buckets)
        edges = np.linspace(t0, t1, buckets + 1)
        # Each step [t_i, t_i+1) holds value v_i; distribute over buckets.
        for i in range(len(t) - 1):
            lo, hi = t[i], t[i + 1]
            if hi <= lo:
                continue
            b_lo = int(np.searchsorted(edges, lo, side="right")) - 1
            b_hi = int(np.searchsorted(edges, hi, side="left"))
            for b in range(max(b_lo, 0), min(b_hi, buckets)):
                seg = min(hi, edges[b + 1]) - max(lo, edges[b])
                if seg > 0:
                    out[b] += v[i] * seg
                    weight[b] += seg
        mask = weight > 0
        out[mask] /= weight[mask]
        return out

    def max(self) -> float:
        return max(self.values) if self.values else 0.0

    def time_above(self, threshold: float) -> float:
        """Total time the signal sat strictly above ``threshold``."""
        total = 0.0
        for i in range(len(self.times) - 1):
            if self.values[i] > threshold:
                total += self.times[i + 1] - self.times[i]
        return total


@dataclass
class LatencyStat:
    """Streaming mean/min/max/variance of a latency series (Welford)."""

    name: str = "latency"
    count: int = 0
    _mean: float = 0.0
    _m2: float = 0.0
    _min: float = math.inf
    _max: float = -math.inf
    total: float = 0.0

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

    def extend(self, values: Sequence[float]) -> None:
        """Fold ``values`` in order, exactly as one :meth:`add` each.

        The recurrences stay sequential Python float arithmetic: a
        vectorized or compensated sum (builtin ``sum`` compensates from
        Python 3.12 on) would change the last bits of ``total`` and of
        the mean.
        """
        if not values:
            return
        count, total, mean, m2 = self.count, self.total, self._mean, self._m2
        for value in values:
            count += 1
            total += value
            delta = value - mean
            mean += delta / count
            m2 += delta * (value - mean)
        self.count, self.total, self._mean, self._m2 = count, total, mean, m2
        low, high = min(values), max(values)
        if low < self._min:
            self._min = low
        if high > self._max:
            self._max = high

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def min(self) -> float:
        """Smallest observed value; 0.0 before any sample (never ``inf``)."""
        return self._min if self.count else 0.0

    @property
    def max(self) -> float:
        """Largest observed value; 0.0 before any sample (never ``-inf``)."""
        return self._max if self.count else 0.0

    @property
    def variance(self) -> float:
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    def summary(self) -> dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "min": self.min,
            "max": self.max,
        }


@dataclass
class Histogram:
    """Fixed-width histogram with overflow bin (for latency tails)."""

    name: str
    bin_width: float
    num_bins: int = 64
    counts: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.bin_width <= 0 or self.num_bins <= 0:
            raise ValueError("bin_width and num_bins must be positive")
        if self.counts is None:
            self.counts = np.zeros(self.num_bins + 1, dtype=np.int64)

    def add(self, value: float) -> None:
        if value < 0:
            raise ValueError("histogram values must be non-negative")
        idx = int(value // self.bin_width)
        # Float division can land one bin off near the edges (e.g.
        # 0.3 // 0.1 == 2.0): correct against the half-open convention
        # ``[idx * w, (idx + 1) * w)`` explicitly.
        if (idx + 1) * self.bin_width <= value:
            idx += 1
        elif idx * self.bin_width > value:
            idx -= 1
        self.counts[min(idx, self.num_bins)] += 1

    def extend(self, values: Sequence[float]) -> None:
        """Bin ``values`` at once: the counts of one :meth:`add` each."""
        # A copy: a view would pin the caller's buffer (an array.array
        # cannot be resized while a numpy view of it is alive).
        v = np.array(values, dtype=np.float64)
        if not v.size:
            return
        if (v < 0).any():
            raise ValueError("histogram values must be non-negative")
        if not np.isfinite(v).all():
            # add() fails on these too (int() of a NaN quotient).
            raise ValueError("histogram values must be finite")
        width = self.bin_width
        # numpy's float floor division is Python's; then the same
        # half-open correction as add(), one step either way.
        idx = np.floor_divide(v, width)
        idx[(idx + 1) * width <= v] += 1
        idx[idx * width > v] -= 1
        np.minimum(idx, self.num_bins, out=idx)
        self.counts += np.bincount(
            idx.astype(np.intp), minlength=self.num_bins + 1
        )

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def percentile(self, p: float) -> float:
        """Approximate percentile from bin edges (upper edge convention)."""
        if not 0 <= p <= 100:
            raise ValueError("percentile must be in [0, 100]")
        total = self.total
        if total == 0:
            return 0.0
        # Clamp the rank to the first sample so p=0 (and tiny p on small
        # totals) lands on the first *occupied* bin rather than on bin 0
        # regardless of contents; the upper-edge convention is unchanged.
        target = max(1.0, total * p / 100.0)
        cum = np.cumsum(self.counts)
        idx = int(np.searchsorted(cum, target))
        if idx >= self.num_bins:
            # Rank lands in the overflow bin: the value is somewhere
            # beyond the last edge, so any finite answer would
            # under-report the tail.
            return math.inf
        return (idx + 1) * self.bin_width

    def summary(self) -> dict[str, float]:
        """Uniform dump shape alongside :meth:`LatencyStat.summary`.

        Overflow-bin percentiles render as the string ``">edge"`` (the
        histogram only knows the tail passed its last edge), keeping the
        dump JSON-serializable.
        """
        edge = self.num_bins * self.bin_width

        def _render(v: float) -> float | str:
            return f">{edge:g}" if math.isinf(v) else v

        return {
            "total": self.total,
            "p50": _render(self.percentile(50)),
            "p99": _render(self.percentile(99)),
        }
