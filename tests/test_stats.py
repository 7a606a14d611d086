"""Tests for the streaming statistics accumulators."""

import math

import numpy as np
import pytest

from repro.sim.stats import Histogram, LatencyStat


class TestLatencyStat:
    def test_mean_min_max(self):
        s = LatencyStat()
        for v in (10.0, 20.0, 30.0):
            s.add(v)
        assert s.mean == pytest.approx(20.0)
        assert s.min == 10.0
        assert s.max == 30.0
        assert s.count == 3
        assert s.total == 60.0

    def test_welford_matches_numpy(self):
        rng = np.random.default_rng(0)
        data = rng.exponential(100.0, size=500)
        s = LatencyStat()
        for v in data:
            s.add(float(v))
        assert s.mean == pytest.approx(data.mean())
        assert s.std == pytest.approx(data.std(ddof=1))

    def test_empty_stat(self):
        s = LatencyStat()
        assert s.mean == 0.0
        assert s.variance == 0.0
        assert s.summary()["count"] == 0

    def test_empty_min_max_are_finite(self):
        """Regression: .min/.max on an empty stat must not leak ±inf."""
        s = LatencyStat("empty")
        assert s.min == 0.0
        assert s.max == 0.0
        summary = s.summary()
        assert all(math.isfinite(v) for v in summary.values())
        assert summary["min"] == 0.0 and summary["max"] == 0.0

    def test_min_max_track_after_first_sample(self):
        s = LatencyStat()
        s.add(-3.0)
        assert s.min == -3.0 and s.max == -3.0
        s.add(7.0)
        assert s.min == -3.0 and s.max == 7.0

    def test_single_value_variance(self):
        s = LatencyStat()
        s.add(5.0)
        assert s.variance == 0.0


class TestHistogram:
    def test_binning(self):
        h = Histogram("lat", bin_width=10.0, num_bins=4)
        for v in (5, 15, 15, 45):
            h.add(v)
        assert h.counts[0] == 1
        assert h.counts[1] == 2
        assert h.counts[4] == 1  # overflow bin

    def test_percentile(self):
        h = Histogram("lat", bin_width=1.0, num_bins=100)
        for v in range(100):
            h.add(v + 0.5)
        assert h.percentile(50) == pytest.approx(50.0)
        assert h.percentile(99) == pytest.approx(99.0)

    def test_rejects_negative_values(self):
        h = Histogram("lat", bin_width=1.0)
        with pytest.raises(ValueError):
            h.add(-1.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            Histogram("x", bin_width=0.0)
        h = Histogram("x", bin_width=1.0)
        with pytest.raises(ValueError):
            h.percentile(200)

    def test_empty_percentile(self):
        assert Histogram("x", bin_width=1.0).percentile(50) == 0.0

    def test_empty_percentile_all_ranks(self):
        """Regression: every rank of an empty histogram is 0.0, no NaN."""
        h = Histogram("x", bin_width=1.0)
        for p in (0, 1, 50, 99, 100):
            assert h.percentile(p) == 0.0

    def test_empty_summary_is_well_defined(self):
        summary = Histogram("x", bin_width=1.0).summary()
        assert summary == {"total": 0, "p50": 0.0, "p99": 0.0}

    def test_p0_lands_on_first_occupied_bin(self):
        """Regression: p=0 used to report bin 0's edge even when the
        first samples sat far up the range."""
        h = Histogram("x", bin_width=10.0, num_bins=16)
        h.add(55.0)  # bin 5
        assert h.percentile(0) == pytest.approx(60.0)
        assert h.percentile(100) == pytest.approx(60.0)

    def test_summary_matches_percentiles(self):
        h = Histogram("lat", bin_width=1.0, num_bins=100)
        for v in range(100):
            h.add(v + 0.5)
        assert h.summary() == {
            "total": 100,
            "p50": h.percentile(50),
            "p99": h.percentile(99),
        }

    def test_overflow_percentile_is_infinite(self):
        """Regression: a rank landing in the overflow bin used to report
        the finite edge ``(num_bins + 1) * bin_width``, silently
        under-reporting the tail."""
        h = Histogram("lat", bin_width=10.0, num_bins=4)
        h.add(1e6)  # overflow
        assert h.percentile(50) == math.inf
        assert h.percentile(99) == math.inf
        # Mixed: median in range, tail in overflow.
        h2 = Histogram("lat", bin_width=10.0, num_bins=4)
        for _ in range(99):
            h2.add(5.0)
        h2.add(1e6)
        assert h2.percentile(50) == pytest.approx(10.0)
        assert h2.percentile(100) == math.inf

    def test_overflow_percentile_renders_as_beyond_edge(self):
        h = Histogram("lat", bin_width=10.0, num_bins=4)
        h.add(1e6)
        assert h.summary() == {"total": 1, "p50": ">40", "p99": ">40"}
        import json

        json.dumps(h.summary())  # stays serializable

    def test_last_real_bin_is_still_finite(self):
        h = Histogram("lat", bin_width=10.0, num_bins=4)
        h.add(35.0)  # last real bin, not overflow
        assert h.percentile(99) == pytest.approx(40.0)

    @pytest.mark.parametrize("bin_width", [0.1, 0.2, 0.3, 10.0, 1e-3])
    def test_float_edge_values_bin_half_open(self, bin_width):
        """Regression: ``value // bin_width`` rounds one bin off near the
        edges (0.3 // 0.1 == 2.0); binning must honor the half-open
        convention ``[i*w, (i+1)*w)`` for values on and near every edge."""
        num_bins = 64
        for i in range(num_bins):
            edge = i * bin_width
            for value in (edge, np.nextafter(edge, np.inf)):
                h = Histogram("x", bin_width=bin_width, num_bins=num_bins)
                h.add(value)
                assert h.counts[i] == 1, (
                    f"value {value!r} landed in bin "
                    f"{int(np.argmax(h.counts))}, want {i}"
                )
            below = np.nextafter(edge, -np.inf)
            if i and below >= (i - 1) * bin_width:
                h = Histogram("x", bin_width=bin_width, num_bins=num_bins)
                h.add(below)
                assert h.counts[i - 1] == 1
