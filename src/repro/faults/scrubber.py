"""Periodic background media scrubbing.

Latent sector errors are only dangerous when they are *discovered during
a rebuild* — the stripe then has no redundancy left to recover the bad
cell from.  A scrub pass reads every cell of every live disk while the
array still has full redundancy, and rewrites any cell that reads back
bad (sector reallocation), clearing the latent error before it can
ambush a rebuild.

The scrubber is deliberately gentle: one outstanding read at a time,
disk-major order, an optional idle ``throttle_ms`` between operations,
and it pauses whenever the array is degraded or rebuilding (a wounded
array needs its bandwidth; the rebuild sweep is already reading
everything that matters).  Scrub traffic shares the disk model with
client and rebuild traffic, so its cost shows up in the same statistics.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Optional

from repro.array.controller import SCRUB_ID_BASE, ArrayController
from repro.array.raidops import ArrayMode
from repro.errors import ConfigurationError
from repro.faults.media import MediaErrorMap
from repro.layouts import Role

#: Modes in which scrubbing runs; anywhere else it pauses and re-checks.
_SCRUB_MODES = (ArrayMode.FAULT_FREE, ArrayMode.POST_RECONSTRUCTION)


class Scrubber:
    """Find-and-repair sweep over every live cell, every ``interval_ms``.

    ``rows`` bounds the sweep per disk (``None`` = the controller's full
    period count — use the same bound as the rebuild domain so scrub and
    rebuild describe the same array).  ``on_repair(disk, offset)`` fires
    for every latent error the scrub fixes.  ``id_base`` overrides the
    access-id block — a harness that replaces a stalled scrubber (e.g.
    after a crash wiped its in-flight reads) hands each generation a
    distinct block so their ids never collide.

    ``audit=True`` turns the sweep into a *parity-audit* scrub: every
    cell read is additionally verified against the controller's
    checksum+write-version metadata (via the attached
    :class:`~repro.faults.corruption.CorruptionModel`), which is exactly
    the per-member check of the stripe's parity equation — a cell whose
    content disagrees with its metadata is a stripe whose equation
    cannot balance.  A mismatched cell is reconstructed from its stripe
    peers and rewritten (repair traffic on the engine clock, like every
    other scrub operation); a mismatch in a stripe with no redundancy
    left is counted unrepairable.
    """

    def __init__(
        self,
        controller: ArrayController,
        media: MediaErrorMap,
        interval_ms: float,
        throttle_ms: float = 0.0,
        rows: Optional[int] = None,
        on_repair: Optional[Callable[[int, int], None]] = None,
        id_base: Optional[int] = None,
        audit: bool = False,
    ):
        if interval_ms <= 0:
            raise ConfigurationError(
                f"scrub interval must be > 0, got {interval_ms}"
            )
        if throttle_ms < 0:
            raise ConfigurationError(
                f"negative scrub throttle {throttle_ms}"
            )
        total_rows = (
            rows
            if rows is not None
            else controller.periods * controller.layout.period
        )
        if total_rows < 1:
            raise ConfigurationError(f"need >= 1 scrub row, got {rows}")
        self.controller = controller
        self.media = media
        self.interval_ms = interval_ms
        self.throttle_ms = throttle_ms
        self.rows = total_rows
        self.on_repair = on_repair
        self.passes_completed = 0
        self.cells_read = 0
        self.found = 0
        self.repaired = 0
        self.audit = audit
        #: Parity-audit accounting: each audited cell is one member-level
        #: verification of its stripe's parity equation.
        self.stripes_audited = 0
        self.audit_mismatches = 0
        self.audit_repairs = 0
        self.audit_unrepairable = 0
        self._running = False
        self._stopped = False
        self._disk = 0
        self._offset = 0
        self._next_id = SCRUB_ID_BASE if id_base is None else id_base

    def start(self) -> None:
        """Arm the scrubber: the first pass begins one interval from now."""
        if self._running or self._stopped:
            raise ConfigurationError("scrubber already started")
        self._running = True
        self.controller.engine.schedule(self.interval_ms, self._begin_pass)

    def stop(self) -> None:
        """Halt permanently (campaign end, or terminal data loss)."""
        self._stopped = True

    # ------------------------------------------------------------------
    # Pass machinery.
    # ------------------------------------------------------------------

    def _begin_pass(self) -> None:
        if self._stopped:
            return
        self._disk = 0
        self._offset = 0
        self._next_cell()

    def _next_cell(self) -> None:
        if self._stopped:
            return
        mode = self.controller.mode
        if mode is ArrayMode.DATA_LOSS:
            self._stopped = True
            return
        if mode not in _SCRUB_MODES:
            # The array is wounded; cede the bandwidth and look again in
            # one interval, resuming from the current position.
            self.controller.engine.schedule(
                self.interval_ms, self._next_cell
            )
            return
        while self._disk < self.controller.layout.n:
            if self.controller.servers[self._disk].failed:
                self._disk += 1
                self._offset = 0
                continue
            if self._offset >= self.rows:
                self._disk += 1
                self._offset = 0
                self._next_id += 1  # new id per disk sweep
                continue
            disk, offset = self._disk, self._offset
            self._offset += 1
            self.cells_read += 1
            self.controller.submit_raw(
                disk,
                offset,
                False,
                self._next_id,
                partial(self._read_done, disk, offset),
                tag="scrub-read",
            )
            return
        self.passes_completed += 1
        self.controller.engine.schedule(self.interval_ms, self._begin_pass)

    def _read_done(self, disk: int, offset: int) -> None:
        if self._stopped:
            return
        if (
            self.controller.mode not in _SCRUB_MODES
            or self.controller.servers[disk].failed
        ):
            # The array was wounded while this read was in flight; do not
            # issue the rewrite — pause via the normal path instead.
            self._advance()
            return
        if self.audit:
            corruption = self.controller.corruption
            if corruption is not None:
                self.stripes_audited += 1
                hits = corruption.corrupt_cells(
                    disk, offset, 1, self.controller.engine.now
                )
                if hits:
                    self.audit_mismatches += 1
                    kind = hits[0][1]
                    corruption.note_detected(kind)
                    oracle = self.controller.oracle
                    if oracle is not None:
                        oracle.note_disk_corruption(kind, detected=True)
                    members = self.controller._stripe_peers(disk, offset)
                    if members is not None:
                        self.controller._reconstruct_sector(
                            disk,
                            offset,
                            members,
                            self._audit_repair_done,
                        )
                        return
                    role = self.controller._plan_layout.locate(
                        disk, offset
                    ).role
                    if role is Role.SPARE:
                        # Spare space holds no data: a plain rewrite
                        # refreshes content and metadata together.
                        self.controller.submit_raw(
                            disk,
                            offset,
                            True,
                            self._next_id,
                            self._audit_repair_done,
                            tag="scrub-rewrite",
                        )
                        return
                    self.audit_unrepairable += 1
        if self.media.is_bad(disk, offset):
            self.found += 1
            self.controller.submit_raw(
                disk,
                offset,
                True,
                self._next_id,
                partial(self._rewrite_done, disk, offset),
                tag="scrub-rewrite",
            )
            return
        self._advance()

    def _rewrite_done(self, disk: int, offset: int) -> None:
        if self.media.repair(disk, offset):
            self.repaired += 1
            if self.on_repair is not None:
                self.on_repair(disk, offset)
        self._advance()

    def _audit_repair_done(self) -> None:
        """The peer-reconstruction rewrite of a mismatched cell landed
        (the rewrite itself clears the corruption-map entry)."""
        self.audit_repairs += 1
        self._advance()

    def _advance(self) -> None:
        if self._stopped:
            return
        if self.throttle_ms > 0:
            self.controller.engine.schedule(
                self.throttle_ms, self._next_cell
            )
        else:
            self._next_cell()

    def to_dict(self) -> dict:
        data = {
            "passes_completed": self.passes_completed,
            "cells_read": self.cells_read,
            "found": self.found,
            "repaired": self.repaired,
        }
        if self.audit:
            data["stripes_audited"] = self.stripes_audited
            data["audit_mismatches"] = self.audit_mismatches
            data["audit_repairs"] = self.audit_repairs
            data["audit_unrepairable"] = self.audit_unrepairable
        return data


def aggregate_scrub(records: List[dict]) -> Optional[dict]:
    """Sum per-trial ``"scrub"`` counter blocks across trial records.

    Returns ``None`` when no trial scrubbed, so summaries of sweeps
    that never ran a scrubber stay byte-identical with their committed
    bench baselines (same conditional idiom as
    ``aggregate_io_recovery``).  Keys are the union of the per-trial
    blocks — the parity-audit counters only appear when some trial
    audited — plus ``trials_reporting``.
    """
    blocks = [r.get("scrub") for r in records]
    blocks = [b for b in blocks if b]
    if not blocks:
        return None
    totals: dict = {}
    for block in blocks:
        for key, value in block.items():
            totals[key] = totals.get(key, 0) + value
    return {
        "trials_reporting": len(blocks),
        **{key: totals[key] for key in sorted(totals)},
    }
