"""Tests for streaming summaries and the stopping rule."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.stats.confidence import StoppingRule
from repro.stats.summary import SummaryStats


def merge(into: SummaryStats, other: SummaryStats) -> None:
    """Fold ``other`` into ``into`` (parallel Welford combination)."""
    if other.count == 0:
        return
    if into.count == 0:
        into.count = other.count
        into._mean = other._mean
        into._m2 = other._m2
        into.minimum = other.minimum
        into.maximum = other.maximum
        return
    total = into.count + other.count
    delta = other._mean - into._mean
    into._m2 += other._m2 + delta * delta * into.count * other.count / total
    into._mean += delta * other.count / total
    into.count = total
    into.minimum = min(into.minimum, other.minimum)
    into.maximum = max(into.maximum, other.maximum)


class TestSummaryStats:
    def test_known_values(self):
        s = SummaryStats()
        for x in [2, 4, 4, 4, 5, 5, 7, 9]:
            s.push(float(x))
        assert s.mean == 5.0
        assert s.variance == pytest.approx(32 / 7)
        assert s.minimum == 2.0 and s.maximum == 9.0

    def test_empty_mean_raises(self):
        with pytest.raises(ConfigurationError):
            _ = SummaryStats().mean

    def test_single_sample(self):
        s = SummaryStats()
        s.push(3.0)
        assert s.mean == 3.0
        assert s.variance == 0.0
        assert s.ci_halfwidth() == math.inf

    def test_ci_shrinks_with_samples(self):
        rng = random.Random(0)
        s = SummaryStats()
        widths = []
        for i in range(1, 1001):
            s.push(rng.gauss(10, 2))
            if i in (100, 1000):
                widths.append(s.ci_halfwidth())
        assert widths[1] < widths[0]

    def test_unsupported_confidence(self):
        s = SummaryStats()
        s.push(1.0)
        s.push(2.0)
        with pytest.raises(ConfigurationError):
            s.ci_halfwidth(0.8)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=50))
    def test_matches_naive_formulas(self, values):
        s = SummaryStats()
        for v in values:
            s.push(v)
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
        assert s.mean == pytest.approx(mean, abs=1e-6, rel=1e-9)
        assert s.variance == pytest.approx(var, abs=1e-4, rel=1e-6)

    @given(
        st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=30),
        st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=30),
    )
    def test_merge_equals_combined(self, xs, ys):
        a, b, c = SummaryStats(), SummaryStats(), SummaryStats()
        for x in xs:
            a.push(x)
            c.push(x)
        for y in ys:
            b.push(y)
            c.push(y)
        merge(a, b)
        assert a.count == c.count
        assert a.mean == pytest.approx(c.mean, abs=1e-7, rel=1e-9)
        assert a.variance == pytest.approx(c.variance, abs=1e-5, rel=1e-6)

    def test_merge_empty(self):
        a, b = SummaryStats(), SummaryStats()
        a.push(1.0)
        merge(a, b)  # no-op
        assert a.count == 1
        merge(b, a)
        assert b.count == 1


class TestStoppingRule:
    def test_converges_on_stable_stream(self):
        rule = StoppingRule(
            rel_precision=0.02, warmup=10, min_samples=50, check_interval=10
        )
        rng = random.Random(1)
        stopped_at = None
        for i in range(100_000):
            if rule.offer(rng.gauss(100, 5)):
                stopped_at = i
                break
        assert stopped_at is not None
        assert rule.converged and not rule.capped

    def test_caps_on_noisy_stream(self):
        rule = StoppingRule(
            rel_precision=0.001,
            warmup=0,
            min_samples=10,
            max_samples=500,
            check_interval=10,
        )
        rng = random.Random(2)
        for _ in range(1000):
            if rule.offer(rng.expovariate(0.01)):
                break
        assert rule.capped and not rule.converged
        assert rule.samples == 500

    def test_warmup_discarded(self):
        rule = StoppingRule(warmup=5, min_samples=2, check_interval=1,
                            rel_precision=0.5)
        for _ in range(5):
            assert not rule.offer(1000.0)  # warmup junk
        assert rule.samples == 0

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            StoppingRule(rel_precision=0.0)
        with pytest.raises(ConfigurationError):
            StoppingRule(min_samples=1)
        with pytest.raises(ConfigurationError):
            StoppingRule(min_samples=100, max_samples=50)
        with pytest.raises(ConfigurationError):
            StoppingRule(check_interval=0)
