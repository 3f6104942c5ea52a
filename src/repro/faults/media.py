"""Seeded latent sector errors (LSEs).

A latent error is a cell that reads back bad but is only *discovered*
when something reads it — a background scrub pass, or worse, the rebuild
sweep of a degraded array (at which point the stripe has no redundancy
left and the unit is gone).  The map draws a Poisson number of bad cells
per disk from a per-GB rate and seed, so campaigns replay
exactly; repairs (a scrub rewrite, or any write that overwrites the
cell) clear entries and are counted.
"""

from __future__ import annotations

import random
from typing import Dict, Set

from repro.errors import ConfigurationError
from repro.sim.random import poisson_draw


class MediaErrorMap:
    """Per-disk sets of bad offsets, with discovery/repair accounting.

    >>> m = MediaErrorMap({0: {3, 5}})
    >>> m.is_bad(0, 3), m.is_bad(0, 4)
    (True, False)
    >>> m.repair(0, 3)
    True
    >>> m.is_bad(0, 3), m.remaining
    (False, 1)
    """

    def __init__(self, bad: Dict[int, Set[int]]):
        self._bad: Dict[int, Set[int]] = {
            disk: set(offsets) for disk, offsets in bad.items() if offsets
        }
        self.seeded = sum(len(s) for s in self._bad.values())
        self.injected = 0
        self.discovered = 0
        self.repaired = 0
        self.overwritten = 0
        self._seen: Set[tuple] = set()

    @classmethod
    def from_rate(
        cls,
        n_disks: int,
        rows: int,
        row_kb: int,
        per_gb: float,
        seed: object,
    ) -> "MediaErrorMap":
        """Draw per-disk errors over a ``rows``-cell domain.

        Each disk's error count is Poisson with mean ``per_gb`` times the
        swept capacity in GB; offsets are sampled without replacement.
        Streams are named per disk, so the draw is independent of disk
        order and stable under ``n_disks`` growth.
        """
        if n_disks < 1 or rows < 1 or row_kb < 1:
            raise ConfigurationError("need positive disks/rows/row size")
        if per_gb < 0:
            raise ConfigurationError(f"negative error rate {per_gb}")
        gb_per_disk = rows * row_kb / (1024.0 * 1024.0)
        lam = per_gb * gb_per_disk
        bad: Dict[int, Set[int]] = {}
        for disk in range(n_disks):
            rng = random.Random(f"{seed}/lse-{disk}")
            count = min(poisson_draw(lam, rng), rows)
            if count:
                bad[disk] = set(rng.sample(range(rows), count))
        return cls(bad)

    def inject(self, disk: int, offset: int) -> bool:
        """Grow a latent error mid-run (an LSE burst); True if new.

        Re-injecting a cell that was already repaired makes it bad again
        and re-arms discovery accounting for it.
        """
        if disk < 0 or offset < 0:
            raise ConfigurationError(
                f"bad LSE injection target ({disk}, {offset})"
            )
        offsets = self._bad.setdefault(disk, set())
        if offset in offsets:
            return False
        offsets.add(offset)
        self._seen.discard((disk, offset))
        self.injected += 1
        return True

    def is_bad(self, disk: int, offset: int) -> bool:
        """Does a read of this cell fail?  Discovery is counted once."""
        bad = offset in self._bad.get(disk, ())
        if bad:
            key = (disk, offset)
            if key not in self._seen:
                self._seen.add(key)
                self.discovered += 1
        return bad

    def repair(self, disk: int, offset: int) -> bool:
        """A scrub rewrite fixed the cell; True if it was bad."""
        offsets = self._bad.get(disk)
        if offsets and offset in offsets:
            offsets.discard(offset)
            self.repaired += 1
            return True
        return False

    def clear(self, disk: int, offset: int) -> bool:
        """Any write overwrites the cell (sector reallocation)."""
        offsets = self._bad.get(disk)
        if offsets and offset in offsets:
            offsets.discard(offset)
            self.overwritten += 1
            return True
        return False

    @property
    def remaining(self) -> int:
        return sum(len(s) for s in self._bad.values())

    def to_dict(self) -> dict:
        data = {
            "seeded": self.seeded,
            "discovered": self.discovered,
            "repaired": self.repaired,
            "overwritten": self.overwritten,
            "remaining": self.remaining,
        }
        if self.injected:
            data["injected"] = self.injected
        return data
