"""Per-array-mode latency accounting.

A lifecycle run spans several operating conditions in one simulation;
binning each response into the mode the array was in when the access was
*issued* yields the per-mode histograms that correspond to the paper's
separately-measured fault-free / degraded / reconstruction /
post-reconstruction curves.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import ConfigurationError
from repro.stats.histogram import LatencyHistogram


class LatencyByMode:
    """A :class:`LatencyHistogram` per mode label, created on demand.

    >>> by_mode = LatencyByMode()
    >>> by_mode.record("fault-free", 12.5)
    >>> by_mode.record("degraded", 40.0)
    >>> by_mode.samples("fault-free")
    1
    >>> sorted(by_mode.modes())
    ['degraded', 'fault-free']
    """

    def __init__(self):
        self._histograms: Dict[str, LatencyHistogram] = {}

    def record(self, mode: str, response_ms: float) -> None:
        histogram = self._histograms.get(mode)
        if histogram is None:
            histogram = LatencyHistogram()
            self._histograms[mode] = histogram
        histogram.record(response_ms)

    def modes(self) -> List[str]:
        return list(self._histograms)

    def histogram(self, mode: str) -> LatencyHistogram:
        histogram = self._histograms.get(mode)
        if histogram is None:
            raise ConfigurationError(f"no samples for mode {mode!r}")
        return histogram

    def samples(self, mode: str) -> int:
        histogram = self._histograms.get(mode)
        return 0 if histogram is None else histogram.count

    def mean(self, mode: str) -> float:
        return self.histogram(mode).mean

    def to_dict(self) -> dict:
        """JSON-able ``{mode: histogram dict}``; exact round-trip."""
        return {
            mode: histogram.to_dict()
            for mode, histogram in sorted(self._histograms.items())
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LatencyByMode":
        by_mode = cls()
        for mode, histogram in data.items():
            by_mode._histograms[mode] = LatencyHistogram.from_dict(histogram)
        return by_mode
