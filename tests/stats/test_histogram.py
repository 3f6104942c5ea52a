"""Tests for the log-bucketed latency histogram."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.stats.histogram import LatencyHistogram


def merge(into: LatencyHistogram, other: LatencyHistogram) -> None:
    """Fold ``other``'s samples into ``into`` (equal shapes only)."""
    if (
        other.min_ms != into.min_ms
        or other._scale != into._scale
        or len(other._counts) != len(into._counts)
    ):
        raise ConfigurationError("histogram shapes differ")
    for i, c in enumerate(other._counts):
        into._counts[i] += c
    into.count += other.count
    into.total_ms += other.total_ms
    into.max_sample_ms = max(into.max_sample_ms, other.max_sample_ms)


class TestBasics:
    def test_empty_queries_raise(self):
        h = LatencyHistogram()
        with pytest.raises(ConfigurationError):
            h.percentile(50)
        with pytest.raises(ConfigurationError):
            _ = h.mean

    def test_mean_exact(self):
        h = LatencyHistogram()
        for v in [1.0, 2.0, 3.0]:
            h.record(v)
        assert h.mean == pytest.approx(2.0)

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            LatencyHistogram().record(-1.0)

    def test_bad_construction(self):
        with pytest.raises(ConfigurationError):
            LatencyHistogram(min_ms=0)
        with pytest.raises(ConfigurationError):
            LatencyHistogram(min_ms=10, max_ms=5)
        with pytest.raises(ConfigurationError):
            LatencyHistogram(buckets_per_decade=0)

    def test_bad_percentile(self):
        h = LatencyHistogram()
        h.record(1.0)
        with pytest.raises(ConfigurationError):
            h.percentile(0)
        with pytest.raises(ConfigurationError):
            h.percentile(101)


class TestAccuracy:
    def test_percentile_relative_error(self):
        h = LatencyHistogram()
        rng = random.Random(1)
        samples = sorted(rng.expovariate(0.02) + 1.0 for _ in range(5000))
        for s in samples:
            h.record(s)
        for p in (50, 90, 99):
            exact = samples[int(len(samples) * p / 100) - 1]
            approx = h.percentile(p)
            assert approx == pytest.approx(exact, rel=0.08), p

    def test_monotone_percentiles(self):
        h = LatencyHistogram()
        rng = random.Random(2)
        for _ in range(1000):
            h.record(rng.uniform(0.5, 500))
        values = [h.percentile(p) for p in (10, 50, 90, 99, 100)]
        assert values == sorted(values)

    def test_clamping_out_of_range(self):
        h = LatencyHistogram(min_ms=1.0, max_ms=100.0)
        h.record(0.001)
        h.record(1e9)
        assert h.count == 2
        assert h.percentile(100) >= 100.0

    @given(st.lists(st.floats(min_value=0.1, max_value=1e5), min_size=1, max_size=200))
    def test_percentile_bounds_samples(self, values):
        h = LatencyHistogram()
        for v in values:
            h.record(v)
        # p100 upper bound must be >= max sample; p-smallest <= ~min*1.05.
        assert h.percentile(100) >= max(values) * 0.99
        assert h.percentile(1) >= min(values) * 0.9


class TestMerge:
    def test_merge_equals_combined(self):
        a, b, c = (LatencyHistogram() for _ in range(3))
        rng = random.Random(3)
        for _ in range(500):
            v = rng.uniform(1, 1000)
            a.record(v)
            c.record(v)
        for _ in range(500):
            v = rng.uniform(1, 1000)
            b.record(v)
            c.record(v)
        merge(a, b)
        assert a.count == c.count
        for p in (50, 95):
            assert a.percentile(p) == c.percentile(p)

    def test_shape_mismatch(self):
        a = LatencyHistogram(buckets_per_decade=10)
        b = LatencyHistogram(buckets_per_decade=20)
        with pytest.raises(ConfigurationError):
            merge(a, b)

    def test_merge_takes_elementwise_max(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        a.record(10.0)
        b.record(250.0)
        merge(a, b)
        assert a.max_sample_ms == 250.0
        assert a.describe()["max_ms"] == 250.0


class TestDescribe:
    def test_empty_describe_is_all_none(self):
        desc = LatencyHistogram().describe()
        assert desc["count"] == 0
        for key in ("mean_ms", "p50_ms", "p95_ms", "p99_ms", "p999_ms",
                    "max_ms"):
            assert desc[key] is None

    def test_describe_percentiles_and_exact_max(self):
        h = LatencyHistogram()
        for i in range(1, 2001):
            h.record(i / 2.0)
        desc = h.describe()
        assert desc["count"] == 2000
        assert desc["p50_ms"] == pytest.approx(500.0, rel=0.06)
        assert desc["p99_ms"] == pytest.approx(990.0, rel=0.06)
        assert desc["p999_ms"] == pytest.approx(999.0, rel=0.06)
        assert desc["max_ms"] == 1000.0  # exact sample, not a bucket edge
        assert desc["p50_ms"] <= desc["p99_ms"] <= desc["p999_ms"]

    def test_p999_separates_a_thin_tail(self):
        """A 2-in-1000 tail moves p999/max but not p99."""
        h = LatencyHistogram()
        for _ in range(4990):
            h.record(10.0)
        for _ in range(10):
            h.record(5000.0)
        desc = h.describe()
        assert desc["p99_ms"] < 20.0
        assert desc["p999_ms"] > 1000.0
        assert desc["max_ms"] == 5000.0


class TestDictRoundTrip:
    def test_round_trip_preserves_max(self):
        h = LatencyHistogram()
        for v in (3.0, 77.7, 912.5):
            h.record(v)
        clone = LatencyHistogram.from_dict(h.to_dict())
        assert clone.count == h.count
        assert clone.max_sample_ms == 912.5
        assert clone.describe() == h.describe()

    def test_tolerates_pre_max_dicts(self):
        """Cached records written before max_sample_ms existed must
        still load; the exact max degrades to the p100 bucket bound."""
        h = LatencyHistogram()
        h.record(42.0)
        data = h.to_dict()
        del data["max_sample_ms"]
        clone = LatencyHistogram.from_dict(data)
        assert clone.count == 1
        assert clone.max_sample_ms >= 42.0
