"""Summary statistics: streaming (Welford's algorithm) and ordered sums."""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

from repro.errors import ConfigurationError

#: Two-sided z quantiles for the confidence levels the harness uses.
_Z = {0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758}


def ordered_sum(values: Iterable[float]) -> float:
    """``values`` added one at a time, left to right.

    The builtin ``sum()`` adds floats this way up to Python 3.11; from
    3.12 on it compensates for rounding, which can move a result in its
    last digit.  Every float sum that reaches a record or a report goes
    through here, so both are byte-identical on every supported Python.

    >>> ordered_sum([0.1] * 10)
    0.9999999999999999
    """
    total = 0
    for value in values:
        total += value
    return total


def ordered_mean(values: Sequence[float]) -> Optional[float]:
    """The mean of ``values`` by :func:`ordered_sum`; None when empty.

    >>> ordered_mean([]) is None
    True
    """
    return ordered_sum(values) / len(values) if values else None


class SummaryStats:
    """Numerically stable running mean/variance.

    >>> s = SummaryStats()
    >>> for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]:
    ...     s.push(x)
    >>> s.mean
    5.0
    >>> round(s.stddev, 4)
    2.1381
    """

    def __init__(self):
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def push(self, value: float) -> None:
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    @property
    def mean(self) -> float:
        if self.count == 0:
            raise ConfigurationError("no samples")
        return self._mean

    @property
    def variance(self) -> float:
        """Sample (n-1) variance."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    def ci_halfwidth(self, confidence: float = 0.95) -> float:
        """Half-width of the normal-approximation confidence interval."""
        if confidence not in _Z:
            raise ConfigurationError(
                f"unsupported confidence {confidence}; use {sorted(_Z)}"
            )
        if self.count < 2:
            return math.inf
        return _Z[confidence] * self.stddev / math.sqrt(self.count)

    def relative_precision(self, confidence: float = 0.95) -> float:
        """CI half-width as a fraction of the mean (the paper's 2% target)."""
        mean = self.mean
        if mean == 0:
            return math.inf
        return self.ci_halfwidth(confidence) / abs(mean)

    def __repr__(self) -> str:
        if self.count == 0:
            return "SummaryStats(empty)"
        return (
            f"SummaryStats(n={self.count}, mean={self._mean:.3f},"
            f" sd={self.stddev:.3f})"
        )
