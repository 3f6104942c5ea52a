"""Latency histograms with percentile queries.

Response-time *tails* matter for storage arrays (the paper reports means;
the tail behaviour of degraded RAID-5 vs declustered layouts is an obvious
follow-up question).  Log-bucketed so memory stays constant regardless of
run length, with <= 5% relative error per percentile query.
"""

from __future__ import annotations

import math
from typing import List

from repro.errors import ConfigurationError


class LatencyHistogram:
    """Logarithmically bucketed latency histogram.

    >>> h = LatencyHistogram()
    >>> for ms in [1.0, 2.0, 4.0, 100.0]:
    ...     h.record(ms)
    >>> h.count
    4
    >>> h.percentile(50) <= h.percentile(99)
    True
    """

    def __init__(
        self,
        min_ms: float = 0.01,
        max_ms: float = 1e7,
        buckets_per_decade: int = 48,
    ):
        if min_ms <= 0 or max_ms <= min_ms:
            raise ConfigurationError("need 0 < min_ms < max_ms")
        if buckets_per_decade < 1:
            raise ConfigurationError("need >= 1 bucket per decade")
        self.min_ms = min_ms
        self.max_ms = max_ms
        self._scale = buckets_per_decade
        decades = math.log10(max_ms / min_ms)
        self._counts: List[int] = [0] * (int(decades * self._scale) + 2)
        self.count = 0
        self.total_ms = 0.0
        #: Exact largest sample seen — the one tail statistic buckets
        #: cannot answer within the 5% error bound.
        self.max_sample_ms = 0.0

    def _bucket(self, value_ms: float) -> int:
        clamped = min(max(value_ms, self.min_ms), self.max_ms)
        return int(math.log10(clamped / self.min_ms) * self._scale)

    def _bucket_upper(self, index: int) -> float:
        return self.min_ms * 10 ** ((index + 1) / self._scale)

    def record(self, value_ms: float) -> None:
        if value_ms < 0:
            raise ConfigurationError(f"negative latency {value_ms}")
        self._counts[self._bucket(value_ms)] += 1
        self.count += 1
        self.total_ms += value_ms
        if value_ms > self.max_sample_ms:
            self.max_sample_ms = value_ms

    @property
    def mean(self) -> float:
        if self.count == 0:
            raise ConfigurationError("no samples")
        return self.total_ms / self.count

    def percentile(self, p: float) -> float:
        """Value at percentile ``p`` (0 < p <= 100), upper-bucket-bounded."""
        if not 0 < p <= 100:
            raise ConfigurationError(f"percentile must be in (0, 100]: {p}")
        if self.count == 0:
            raise ConfigurationError("no samples")
        target = math.ceil(self.count * p / 100.0)
        seen = 0
        for index, count in enumerate(self._counts):
            seen += count
            if seen >= target:
                return self._bucket_upper(index)
        return self._bucket_upper(len(self._counts) - 1)  # pragma: no cover

    def describe(self) -> dict:
        """Tail-complete summary: count/mean, p50-p999, exact max.

        p999 comes from the log buckets (<= 5% relative error like every
        percentile query); ``max_ms`` is the exact largest sample, since
        a bucket bound is the wrong answer for "how bad did it get".

        >>> h = LatencyHistogram()
        >>> for ms in (1.0, 2.0, 400.0):
        ...     h.record(ms)
        >>> h.describe()["max_ms"]
        400.0
        """
        if self.count == 0:
            return {
                "count": 0,
                "mean_ms": None,
                "p50_ms": None,
                "p95_ms": None,
                "p99_ms": None,
                "p999_ms": None,
                "max_ms": None,
            }
        return {
            "count": self.count,
            "mean_ms": self.mean,
            "p50_ms": self.percentile(50),
            "p95_ms": self.percentile(95),
            "p99_ms": self.percentile(99),
            "p999_ms": self.percentile(99.9),
            "max_ms": self.max_sample_ms,
        }

    def to_dict(self) -> dict:
        """JSON-able form (sparse buckets); exact round-trip.

        >>> h = LatencyHistogram()
        >>> h.record(3.5)
        >>> LatencyHistogram.from_dict(h.to_dict()).total_ms
        3.5
        """
        return {
            "min_ms": self.min_ms,
            "max_ms": self.max_ms,
            "buckets_per_decade": self._scale,
            "count": self.count,
            "total_ms": self.total_ms,
            "max_sample_ms": self.max_sample_ms,
            "counts": {
                str(i): c for i, c in enumerate(self._counts) if c
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LatencyHistogram":
        hist = cls(
            min_ms=data["min_ms"],
            max_ms=data["max_ms"],
            buckets_per_decade=data["buckets_per_decade"],
        )
        for index, count in data["counts"].items():
            hist._counts[int(index)] = count
        hist.count = data["count"]
        hist.total_ms = data["total_ms"]
        # Dicts serialized before the exact max existed fall back to the
        # highest occupied bucket's upper bound (<= 5% high, never low).
        hist.max_sample_ms = data.get(
            "max_sample_ms",
            hist.percentile(100) if hist.count else 0.0,
        )
        return hist

    def merge(self, other: "LatencyHistogram") -> None:
        if (
            other.min_ms != self.min_ms
            or other._scale != self._scale
            or len(other._counts) != len(self._counts)
        ):
            raise ConfigurationError("histogram shapes differ")
        for i, c in enumerate(other._counts):
            self._counts[i] += c
        self.count += other.count
        self.total_ms += other.total_ms
        if other.max_sample_ms > self.max_sample_ms:
            self.max_sample_ms = other.max_sample_ms
