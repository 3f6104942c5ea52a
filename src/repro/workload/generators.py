"""Access-location generators.

The paper's workload draws each logical access's start uniformly over all
client data ("random accesses uniformly distributed over all data", aligned
to stripe-unit boundaries).  Sequential and Zipf variants support the
ablation benchmarks.
"""

from __future__ import annotations

import abc
import random

from repro.errors import ConfigurationError
from repro.stats.summary import ordered_sum


class LocationGenerator(abc.ABC):
    """Produces aligned start units for accesses of a fixed span."""

    def __init__(self, total_units: int, span_units: int):
        if span_units < 1:
            raise ConfigurationError(f"span must be >= 1, got {span_units}")
        if total_units < span_units:
            raise ConfigurationError(
                f"array of {total_units} units cannot hold a"
                f" {span_units}-unit access"
            )
        self.total_units = total_units
        self.span_units = span_units

    @abc.abstractmethod
    def next_start(self) -> int:
        """The next access's first data unit."""


class UniformGenerator(LocationGenerator):
    """Uniform over all valid starts (the paper's workload).

    Table 2's "alignment: 8 KB (stripe unit boundary)" holds by
    construction: the address space counts whole stripe units.
    """

    def __init__(self, total_units: int, span_units: int, rng: random.Random):
        super().__init__(total_units, span_units)
        self.rng = rng

    def next_start(self) -> int:
        return self.rng.randrange(self.total_units - self.span_units + 1)


class SequentialGenerator(LocationGenerator):
    """Back-to-back accesses sweeping the array, wrapping at the end."""

    def __init__(self, total_units: int, span_units: int, start: int = 0):
        super().__init__(total_units, span_units)
        self._next = start % (total_units - span_units + 1)

    def next_start(self) -> int:
        start = self._next
        self._next += self.span_units
        if self._next + self.span_units > self.total_units:
            self._next = 0
        return start


class ZipfGenerator(LocationGenerator):
    """Zipf-skewed starts: hot units near the front of the address space."""

    def __init__(
        self,
        total_units: int,
        span_units: int,
        rng: random.Random,
        theta: float = 1.0,
        buckets: int = 64,
    ):
        super().__init__(total_units, span_units)
        if theta <= 0:
            raise ConfigurationError(f"theta must be positive, got {theta}")
        if buckets < 1:
            raise ConfigurationError("need at least one bucket")
        self.rng = rng
        weights = [1.0 / (rank + 1) ** theta for rank in range(buckets)]
        total = ordered_sum(weights)
        self._cdf = []
        acc = 0.0
        for w in weights:
            acc += w / total
            self._cdf.append(acc)
        self.buckets = buckets

    def next_start(self) -> int:
        u = self.rng.random()
        bucket = next(i for i, c in enumerate(self._cdf) if u <= c)
        usable = self.total_units - self.span_units + 1
        lo = bucket * usable // self.buckets
        hi = max(lo + 1, (bucket + 1) * usable // self.buckets)
        return self.rng.randrange(lo, hi)
