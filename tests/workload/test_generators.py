"""Location generators: seeded determinism and distribution shape."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.workload.generators import (
    SequentialGenerator,
    UniformGenerator,
    ZipfGenerator,
)


def _stream(gen, n=200):
    return [gen.next_start() for _ in range(n)]


class TestDeterminism:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        total=st.integers(min_value=64, max_value=100_000),
        span=st.integers(min_value=1, max_value=12),
    )
    def test_uniform_same_seed_same_stream(self, seed, total, span):
        a = UniformGenerator(total, span, random.Random(seed))
        b = UniformGenerator(total, span, random.Random(seed))
        stream = _stream(a)
        assert stream == _stream(b)
        assert all(0 <= s <= total - span for s in stream)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        total=st.integers(min_value=64, max_value=100_000),
        span=st.integers(min_value=1, max_value=12),
        theta=st.floats(min_value=0.2, max_value=2.0),
    )
    def test_zipf_same_seed_same_stream(self, seed, total, span, theta):
        a = ZipfGenerator(total, span, random.Random(seed), theta=theta)
        b = ZipfGenerator(total, span, random.Random(seed), theta=theta)
        stream = _stream(a)
        assert stream == _stream(b)
        assert all(0 <= s <= total - span for s in stream)

    @settings(max_examples=25, deadline=None)
    @given(
        total=st.integers(min_value=64, max_value=100_000),
        span=st.integers(min_value=1, max_value=12),
        start=st.integers(min_value=0, max_value=2**20),
    )
    def test_sequential_is_seedless_deterministic(self, total, span, start):
        a = SequentialGenerator(total, span, start=start)
        b = SequentialGenerator(total, span, start=start)
        stream = _stream(a)
        assert stream == _stream(b)
        assert all(0 <= s <= total - span for s in stream)


class TestZipfShape:
    def test_rank_frequency_is_monotone(self):
        """Bucket hit counts must fall (weakly) with rank: the front of
        the address space is the hot set."""
        buckets = 8
        gen = ZipfGenerator(
            8192, 1, random.Random("zipf"), theta=1.2, buckets=buckets
        )
        usable = gen.total_units - gen.span_units + 1
        counts = Counter(
            min(s * buckets // usable, buckets - 1)
            for s in _stream(gen, 30_000)
        )
        hits = [counts.get(b, 0) for b in range(buckets)]
        assert hits[0] == max(hits)
        # Weakly decreasing with a small sampling-noise allowance.
        for a, b in zip(hits, hits[1:]):
            assert b <= a * 1.1 + 50
        # And genuinely skewed, not flat.
        assert hits[0] > 3 * hits[-1]

    def test_higher_theta_is_more_skewed(self):
        def head_share(theta):
            gen = ZipfGenerator(
                4096, 1, random.Random("skew"), theta=theta, buckets=16
            )
            usable = gen.total_units - gen.span_units + 1
            starts = _stream(gen, 10_000)
            return sum(1 for s in starts if s < usable // 16) / len(starts)

        assert head_share(1.5) > head_share(0.5)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ZipfGenerator(1024, 1, random.Random(0), theta=0.0)
        with pytest.raises(ConfigurationError):
            ZipfGenerator(1024, 1, random.Random(0), buckets=0)
        with pytest.raises(ConfigurationError):
            UniformGenerator(4, 8, random.Random(0))
