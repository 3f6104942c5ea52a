"""Disk-originated silent corruption: lost writes, misdirected writes, bit rot.

Every fault model before this one fails *loudly*: a dead disk, a read
that errors, a latent sector that reports unreadable.  Real drives also
fail silently — the drive acks a write it never persisted (a *lost
write*), persists it at the wrong LBA (a *misdirected write*, which both
leaves the intended cell stale and clobbers an innocent victim cell),
or lets stored bits decay (*bit rot*).  In all three cases the next read
of the cell returns plausible-looking garbage with no error, which is
why end-to-end checksums and write-version metadata exist.

The simulator never models byte contents, so corruption is tracked as a
per-cell predicate: a cell is *corrupt* when its platter content no
longer matches what the controller's checksum+version metadata says it
should hold.  :class:`CorruptionModel` owns that map plus the seeded
draws that grow it and the per-kind detection/repair/silence ledger the
oracle and bench summaries report from.

Determinism contract, matching the other optional fault hooks:

- a controller with no model attached is byte-identical to one that
  never imported this module;
- a model whose rates are all zero draws nothing — per-disk RNG streams
  (``"{seed}/corrupt-{disk}"``) are created lazily, on the first draw
  that can actually fire, so attaching an inactive model keeps results
  byte-identical;
- bit rot draws all of its randomness at construction (cell choice and
  onset time per disk, from ``"{seed}/bitrot-{disk}"``); afterwards a
  cell's rot state is a pure function of the simulated clock.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.sim.random import poisson_draw

#: Corruption kinds the model draws.
CORRUPTION_KINDS = ("lost-write", "misdirected-write", "bit-rot")

#: All kinds that can appear in the ledger: the drawn kinds plus
#: ``parity-pollution`` — parity poisoned by an undefended
#: read-modify-write whose pre-read consumed stale data.
ALL_CORRUPTION_KINDS = CORRUPTION_KINDS + ("parity-pollution",)

#: Bit-rot onsets are drawn uniform over ``[0, BITROT_WINDOW_MS)``.
BITROT_WINDOW_MS = 60_000.0

_EMPTY: tuple = ()


class CorruptionModel:
    """Seeded per-disk silent-corruption injector and ledger.

    ``lost_rate`` and ``misdirected_rate`` are per physical write
    operation (one draw per completed write request, from the target
    disk's named stream); ``bitrot_cells`` is the Poisson mean of decayed
    cells per disk, each with an onset drawn uniform over
    ``[0, BITROT_WINDOW_MS)``.  ``rows`` bounds the per-disk offset
    domain — misdirected victims never escape ``[0, rows)``.

    >>> model = CorruptionModel(4, 100, seed=7, lost_rate=1.0)
    >>> model.note_write(0, 10, 2, now_ms=0.0)
    'lost-write'
    >>> sorted(off for off, _ in model.corrupt_cells(0, 10, 2, 0.0))
    [10, 11]
    """

    def __init__(
        self,
        n_disks: int,
        rows: int,
        seed: object,
        lost_rate: float = 0.0,
        misdirected_rate: float = 0.0,
        bitrot_cells: float = 0.0,
    ):
        if n_disks < 1 or rows < 1:
            raise ConfigurationError("need >= 1 disk and >= 1 row")
        for name, rate in (
            ("lost_rate", lost_rate),
            ("misdirected_rate", misdirected_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(
                    f"{name} must be in [0, 1], got {rate}"
                )
        if lost_rate + misdirected_rate > 1.0:
            raise ConfigurationError(
                "lost_rate + misdirected_rate must not exceed 1.0"
            )
        if bitrot_cells < 0:
            raise ConfigurationError(
                f"negative bitrot_cells {bitrot_cells}"
            )
        self.n_disks = n_disks
        self.rows = rows
        self.seed = seed
        self.lost_rate = lost_rate
        self.misdirected_rate = misdirected_rate
        #: disk -> (lost_rate, misdirected_rate) override while a
        #: nemesis corruption-burst window is open on that disk.
        self._burst: Dict[int, Tuple[float, float]] = {}
        #: (disk, offset) -> kind; membership is the corruption predicate.
        self._corrupt: Dict[Tuple[int, int], str] = {}
        self._rngs: Dict[int, random.Random] = {}
        #: (onset_ms, disk, offset), sorted; absorbed lazily by clock.
        self._bitrot_pending: List[Tuple[float, int, int]] = []
        self._bitrot_idx = 0
        if bitrot_cells > 0:
            pending = self._bitrot_pending
            for disk in range(n_disks):
                rng = random.Random(f"{seed}/bitrot-{disk}")
                count = min(poisson_draw(bitrot_cells, rng), rows)
                if count:
                    for offset in rng.sample(range(rows), count):
                        pending.append(
                            (rng.uniform(0.0, BITROT_WINDOW_MS), disk, offset)
                        )
            pending.sort()
        self.injected = {kind: 0 for kind in ALL_CORRUPTION_KINDS}
        self.detected = {kind: 0 for kind in ALL_CORRUPTION_KINDS}
        self.silent = {kind: 0 for kind in ALL_CORRUPTION_KINDS}
        self.repaired = {kind: 0 for kind in ALL_CORRUPTION_KINDS}
        self.cells_corrupted = 0

    # ------------------------------------------------------------------
    # Draw machinery.
    # ------------------------------------------------------------------

    def _rng(self, disk: int) -> random.Random:
        rng = self._rngs.get(disk)
        if rng is None:
            rng = random.Random(f"{self.seed}/corrupt-{disk}")
            self._rngs[disk] = rng
        return rng

    def _rates(self, disk: int) -> Tuple[float, float]:
        burst = self._burst.get(disk)
        if burst is not None:
            return burst
        return self.lost_rate, self.misdirected_rate

    def misdirect_target(self, offset: int, rng: random.Random) -> int:
        """The victim offset a misdirected write of ``offset`` lands on.

        Always inside ``[0, rows)`` and never ``offset`` itself when the
        disk has more than one row (property-tested).
        """
        if self.rows == 1:
            return offset
        return (offset + rng.randrange(1, self.rows)) % self.rows

    def _absorb_bitrot(self, now_ms: float) -> None:
        pending = self._bitrot_pending
        i = self._bitrot_idx
        if i >= len(pending):
            return
        while i < len(pending) and pending[i][0] <= now_ms:
            _, disk, offset = pending[i]
            i += 1
            self._mark(disk, offset, "bit-rot", count_event=True)
        self._bitrot_idx = i

    def _mark(
        self, disk: int, offset: int, kind: str, count_event: bool = False
    ) -> None:
        key = (disk, offset)
        if count_event:
            self.injected[kind] += 1
        if key not in self._corrupt:
            self._corrupt[key] = kind
            self.cells_corrupted += 1

    def _clear(self, disk: int, offset: int) -> None:
        kind = self._corrupt.pop((disk, offset), None)
        if kind is not None:
            self.repaired[kind] += 1

    # ------------------------------------------------------------------
    # Controller hooks.
    # ------------------------------------------------------------------

    def note_write(
        self, disk: int, first_offset: int, n_units: int, now_ms: float
    ) -> Optional[str]:
        """One physical write of ``n_units`` contiguous cells completed.

        Returns the drawn corruption kind, or None when the write
        persisted correctly (in which case it *repairs* any corruption
        the covered cells carried — fresh content matches fresh
        metadata).  Zero-rate models draw nothing.
        """
        self._absorb_bitrot(now_ms)
        lost, misdirected = self._rates(disk)
        outcome = None
        if lost > 0.0 or misdirected > 0.0:
            draw = self._rng(disk).random()
            if draw < lost:
                outcome = "lost-write"
            elif draw < lost + misdirected:
                outcome = "misdirected-write"
        if outcome is None:
            if self._corrupt:
                for offset in range(first_offset, first_offset + n_units):
                    self._clear(disk, offset)
            return None
        self.injected[outcome] += 1
        if outcome == "lost-write":
            # The drive acked but nothing hit the platter: every covered
            # cell now disagrees with its freshly-bumped write version.
            for offset in range(first_offset, first_offset + n_units):
                self._mark(disk, offset, "lost-write")
        else:
            # The payload landed at a perturbed address: the intended
            # cells stay stale *and* the victim run is clobbered.
            victim_first = self.misdirect_target(first_offset, self._rng(disk))
            for i in range(n_units):
                self._mark(disk, first_offset + i, "misdirected-write")
                self._mark(disk, (victim_first + i) % self.rows,
                           "misdirected-write")
        return outcome

    def corrupt_cells(
        self, disk: int, first_offset: int, n_units: int, now_ms: float
    ) -> List[Tuple[int, str]]:
        """Corrupt cells covered by a read, as ``(offset, kind)`` pairs."""
        if not self._corrupt and self._bitrot_idx >= len(
            self._bitrot_pending
        ):
            return _EMPTY  # type: ignore[return-value]
        self._absorb_bitrot(now_ms)
        corrupt = self._corrupt
        if not corrupt:
            return _EMPTY  # type: ignore[return-value]
        hits = []
        for offset in range(first_offset, first_offset + n_units):
            kind = corrupt.get((disk, offset))
            if kind is not None:
                hits.append((offset, kind))
        return hits

    def pollute(self, disk: int, offset: int) -> None:
        """An undefended RMW folded stale data into this check cell."""
        self._mark(disk, offset, "parity-pollution", count_event=True)

    def note_detected(self, kind: str) -> None:
        """Checksum/version validation caught a corrupt cell."""
        self.detected[kind] += 1

    def note_silent(self, kind: str) -> None:
        """A corrupt cell was consumed as good data — served silently."""
        self.silent[kind] += 1

    # ------------------------------------------------------------------
    # Nemesis burst windows.
    # ------------------------------------------------------------------

    def begin_burst(
        self, disk: int, lost_rate: float, misdirected_rate: float
    ) -> None:
        """Open a corruption-burst window: raised rates on one disk."""
        if not 0 <= disk < self.n_disks:
            raise ConfigurationError(f"no disk {disk}")
        if lost_rate + misdirected_rate > 1.0 or min(
            lost_rate, misdirected_rate
        ) < 0.0:
            raise ConfigurationError(
                f"bad burst rates ({lost_rate}, {misdirected_rate})"
            )
        self._burst[disk] = (lost_rate, misdirected_rate)

    def end_burst(self, disk: int) -> None:
        """Close the window: the disk returns to the base rates."""
        self._burst.pop(disk, None)

    def burst_active(self, disk: int) -> bool:
        """Is a corruption-burst window currently open on ``disk``?"""
        return disk in self._burst

    # ------------------------------------------------------------------
    # Reporting.
    # ------------------------------------------------------------------

    @property
    def remaining(self) -> int:
        """Corrupt cells currently latent (drawn but never repaired)."""
        return len(self._corrupt)

    def report(self) -> dict:
        """JSON-able per-kind ledger for trial records."""
        return {
            "injected": dict(self.injected),
            "detected": dict(self.detected),
            "silent": dict(self.silent),
            "repaired": dict(self.repaired),
            "cells_corrupted": self.cells_corrupted,
            "remaining": self.remaining,
            "silent_total": sum(self.silent.values()),
            "detected_total": sum(self.detected.values()),
        }

    def __repr__(self) -> str:
        return (
            f"CorruptionModel(lost={self.lost_rate:g},"
            f" misdirected={self.misdirected_rate:g},"
            f" corrupt_cells={self.remaining})"
        )
