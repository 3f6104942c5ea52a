"""Seek-mix aggregation (Figures 4, 7, 15, 16).

Each column of those figures decomposes the physical operations of an
average logical access into non-local seeks, local cylinder switches, local
track switches, and no-switch operations.  The simulator's per-disk counters
hold the raw tallies; this module normalizes them per logical access.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.disk.stats import DiskOpClass, DiskStats
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class SeekMix:
    """Per-logical-access operation mix — one Figure 4 column."""

    non_local: float
    cylinder_switch: float
    track_switch: float
    no_switch: float

    @property
    def total(self) -> float:
        return (
            self.non_local
            + self.cylinder_switch
            + self.track_switch
            + self.no_switch
        )

    def as_row(self) -> str:
        return (
            f"nonlocal={self.non_local:5.2f}  cyl={self.cylinder_switch:5.2f}"
            f"  trk={self.track_switch:5.2f}  none={self.no_switch:5.2f}"
            f"  total={self.total:5.2f}"
        )


def seek_mix_per_access(
    disk_stats: Iterable[DiskStats], logical_accesses: int
) -> SeekMix:
    """Aggregate per-disk counters into the per-access mix.

    >>> s = DiskStats()
    >>> s.record(DiskOpClass.NON_LOCAL_SEEK, 8.0, 3.0, 1.0)
    >>> s.record(DiskOpClass.NO_SWITCH, 0.0, 3.0, 1.0)
    >>> seek_mix_per_access([s], 2).total
    1.0
    """
    if logical_accesses < 1:
        raise ConfigurationError("need at least one completed access")
    totals = {cls: 0 for cls in DiskOpClass}
    for stats in disk_stats:
        for cls, count in stats.by_class.items():
            totals[cls] += count
    return SeekMix(
        non_local=totals[DiskOpClass.NON_LOCAL_SEEK] / logical_accesses,
        cylinder_switch=totals[DiskOpClass.CYLINDER_SWITCH] / logical_accesses,
        track_switch=totals[DiskOpClass.TRACK_SWITCH] / logical_accesses,
        no_switch=totals[DiskOpClass.NO_SWITCH] / logical_accesses,
    )
