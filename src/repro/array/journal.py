"""NVRAM-style dirty-stripe region log (the write-hole journal).

The §4.2 write variants update data and parity in separate physical
phases, so a controller crash between (or inside) those phases leaves a
stripe's parity inconsistent with its data — the classic RAID *write
hole*.  Real controllers close it with a small battery-backed region log:
before any write-plan phase issues, the stripes the plan will touch are
marked dirty in NVRAM; when the last phase completes they are cleared.
After a crash the log names exactly the stripes whose parity is suspect,
so recovery (:mod:`repro.array.resync`) rewrites parity for those
stripes only instead of sweeping the whole array.

:class:`StripeJournal` models that log.  It is pure bookkeeping plus one
cost knob: ``latency_ms`` is charged on the engine clock before the
write's first phase launches (the NVRAM append), which is what makes the
journal's overhead visible in response-time curves.  Entries are
reference counted because overlapping in-flight writes can share a
stripe; the log survives a power loss by construction (it *is* the
NVRAM), so after :meth:`ArrayController.crash` the dirty set names the
torn writes' stripes.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.errors import ConfigurationError, SimulationError


class StripeJournal:
    """Reference-counted dirty-stripe set with an NVRAM append cost.

    >>> journal = StripeJournal(latency_ms=0.05)
    >>> journal.mark([3, 4]); journal.mark([4])
    >>> journal.dirty_stripes()
    [3, 4]
    >>> journal.clear([4]); journal.dirty_stripes()
    [3, 4]
    >>> journal.clear([3, 4]); journal.dirty_stripes()
    []
    """

    def __init__(self, latency_ms: float = 0.05):
        if latency_ms < 0:
            raise ConfigurationError(
                f"negative journal latency {latency_ms}"
            )
        self.latency_ms = latency_ms
        self._dirty: Dict[int, int] = {}
        self.marks = 0
        self.clears = 0
        self.peak_dirty = 0

    def mark(self, stripes: Iterable[int]) -> None:
        """Record the stripes of one write plan as dirty (NVRAM append)."""
        dirty = self._dirty
        for stripe in stripes:
            dirty[stripe] = dirty.get(stripe, 0) + 1
        self.marks += 1
        if len(dirty) > self.peak_dirty:
            self.peak_dirty = len(dirty)

    def clear(self, stripes: Iterable[int]) -> None:
        """Drop one write plan's marks (its last phase completed)."""
        dirty = self._dirty
        for stripe in stripes:
            count = dirty.get(stripe)
            if count is None:
                raise SimulationError(
                    f"journal clear of clean stripe {stripe}"
                )
            if count == 1:
                del dirty[stripe]
            else:
                dirty[stripe] = count - 1
        self.clears += 1

    @property
    def dirty_count(self) -> int:
        return len(self._dirty)

    def dirty_stripes(self) -> List[int]:
        """The suspect set a post-crash resync must replay, sorted."""
        return sorted(self._dirty)

    def reset(self) -> None:
        """Empty the log (recovery finished replaying it)."""
        self._dirty.clear()

    def to_dict(self) -> dict:
        return {
            "latency_ms": self.latency_ms,
            "marks": self.marks,
            "clears": self.clears,
            "dirty": self.dirty_count,
            "peak_dirty": self.peak_dirty,
        }
