"""Post-crash parity resynchronization (closing the write hole).

After a controller crash, every write that was mid-plan may have updated
some of its stripes' cells but not others — parity inconsistent with
data.  Recovery re-reads each affected stripe's data units and rewrites
its check units, making parity consistent-by-construction again.  Which
stripes get that treatment is the whole game:

* **Journal replay** — with a :class:`~repro.array.journal.StripeJournal`
  the NVRAM dirty set names exactly the stripes of torn writes, so the
  resync touches a handful of stripes and completes in milliseconds.
* **Full sweep** — without a journal nothing identifies the torn
  stripes, so every stripe in the array must be recomputed.  This is the
  measurable baseline the journal is beating in ``BENCH_crash.json``.

Stripes whose parity chain crosses a failed disk cannot always be
recomputed; :func:`classify_stripe` is the shared (pure) classification
used both here and by the crash property tests:

``recompute``
    Every member readable — re-read data, rewrite parity.  Safe.
``parity_lost``
    The *check* unit is on the failed disk.  There is no stored parity
    to be inconsistent, hence no write hole: skip.
``data_lost``
    A *data* unit is on the failed disk.  Parity is the only way to
    recover it, and if a torn write left that parity untrustworthy the
    unit is unrecoverable — terminal data loss (folds into the
    campaign's ``DATA_LOSS`` accounting).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Set, Tuple

from repro.array.controller import RESYNC_ID_BASE, ArrayController
from repro.array.raidops import ArrayMode, RebuiltPredicate
from repro.array.sweep import PacedSweep
from repro.layouts.base import Layout


def classify_stripe(
    layout: Layout,
    stripe: int,
    failed_disk: Optional[int],
    rebuilt: Optional[RebuiltPredicate] = None,
) -> str:
    """Classify one suspect stripe for resync (see module docstring).

    ``rebuilt`` is the reconstruction frontier, if a rebuild was in
    progress: cells already swept into spare space (or onto a
    replacement) count as readable.
    """
    if failed_disk is None:
        return "recompute"
    period, per_period, per_stripe, _ = layout.stripe_table()
    cycle, index = divmod(stripe, per_period)
    lost = layout.failure_table(failed_disk)[index]
    if lost is None or (
        rebuilt is not None and rebuilt(lost.row + cycle * period)
    ):
        return "recompute"
    return "data_lost" if lost.position < per_stripe else "parity_lost"


def swept_periods(layout: Layout, rows: int) -> int:
    """Layout periods a full sweep bounded by ``rows`` covers (>= 1)."""
    return max(1, rows // layout.period)


def resync_region_units(controller: ArrayController, rows: int) -> int:
    """Client data units in the stripes a full-sweep resync bounded by
    ``rows`` recomputes: clients that write only there leave no write
    hole that sweep misses."""
    layout = controller.layout
    return min(
        swept_periods(layout, rows) * layout.data_units_per_period,
        controller.addressable_data_units,
    )


class Resynchronizer(PacedSweep):
    """Replays the dirty-stripe set after a controller restart.

    Attach to a restarted controller and :meth:`start`.  With ``journal``
    the sweep covers exactly its dirty stripes; without, the full array
    (bounded by ``rows`` the same way rebuild sweeps are).  ``suspect``
    is the simulator's omniscient set of genuinely-torn stripes (from
    :meth:`ArrayController.crash`): a ``data_lost`` stripe only means
    actual loss if it really was torn — pass ``None`` to treat every
    swept stripe as torn (the conservative default, and exact for
    journal replay since the dirty set *is* the torn set).

    ``parallel_stripes`` bounds concurrent stripe recomputations and
    ``throttle_ms`` idles each slot between stripes, mirroring the
    rebuild throttle, so resync interference with client traffic is
    tunable.
    """

    kind = "resync"

    def __init__(
        self,
        controller: ArrayController,
        journal=None,
        suspect: Optional[Set[int]] = None,
        rows: Optional[int] = None,
        parallel_stripes: int = 1,
        throttle_ms: float = 0.0,
        on_finished: Optional[Callable[[float], None]] = None,
        on_data_loss: Optional[
            Callable[["Resynchronizer", List[int]], None]
        ] = None,
        rebuilt: Optional[RebuiltPredicate] = None,
    ):
        super().__init__(
            controller, parallel_stripes, throttle_ms, on_finished=on_finished
        )
        self.layout = controller.plan_layout
        self.journal = journal
        self.suspect = suspect
        self.on_data_loss = on_data_loss
        self.rebuilt = rebuilt
        layout = self.layout
        if journal is not None:
            self.sweep: List[int] = journal.dirty_stripes()
        else:
            periods = (
                controller.periods
                if rows is None
                else swept_periods(layout, rows)
            )
            self.sweep = list(range(periods * layout.stripes_per_period))
        self.stripes_total = len(self.sweep)
        self.recomputed = 0
        self.parity_lost_skipped = 0
        self.consistent_skipped = 0
        self.data_lost_stripes: List[int] = []
        self.reads_issued = 0
        self.writes_issued = 0
        self._next_id = RESYNC_ID_BASE

    # ------------------------------------------------------------------
    # Classification.
    # ------------------------------------------------------------------

    def _begin(self) -> None:
        controller = self.controller
        failed = (
            controller.failed_disk
            if controller.mode
            in (ArrayMode.DEGRADED, ArrayMode.RECONSTRUCTION)
            else None
        )
        recompute: List[int] = []
        for stripe in self.sweep:
            kind = classify_stripe(self.layout, stripe, failed, self.rebuilt)
            if kind == "recompute":
                recompute.append(stripe)
            elif kind == "parity_lost":
                # No stored parity to disagree with its data: the stripe
                # is merely degraded, not holed.  The rebuild sweep will
                # recompute the check unit from data anyway.
                self.parity_lost_skipped += 1
            elif self.suspect is not None and stripe not in self.suspect:
                # Data member lost but no write was torn on this stripe:
                # parity is still trustworthy, reconstruction stays safe.
                self.consistent_skipped += 1
            else:
                self.data_lost_stripes.append(stripe)
        if self.data_lost_stripes:
            self._handle_data_loss()
        self._queue = iter(recompute)

    def _handle_data_loss(self) -> None:
        """Torn stripes with a lost data member: the write hole ate data."""
        stripes = self.data_lost_stripes
        if self.on_data_loss is not None:
            self.on_data_loss(self, stripes)
            return
        self.abort()
        self.controller.declare_data_loss(
            f"write hole: {len(stripes)} dirty stripe(s) with a data"
            f" member on failed disk {self.controller.failed_disk}"
            f" (first: stripe {stripes[0]})"
        )

    @property
    def complete(self) -> bool:
        return self.finished_ms is not None

    # ------------------------------------------------------------------
    # Stripe recomputation machinery.
    # ------------------------------------------------------------------

    def _live_cells(
        self, stripe: int
    ) -> Tuple[List[Tuple[int, int]], List[Tuple[int, int]]]:
        """Where the stripe's data and check units actually live right
        now, as ``(disk, offset)`` cells."""
        controller = self.controller
        layout = self.layout
        period, per_period, _, stripes = layout.stripe_table()
        cycle, index = divmod(stripe, per_period)
        shift = cycle * period
        data, check = stripes[index]
        failed = controller.failed_disk
        rebuilt = self.rebuilt
        if failed is not None:
            lost = layout.failure_table(failed)[index]
            if lost is not None and (
                controller.mode is ArrayMode.POST_RECONSTRUCTION
                or (rebuilt is not None and rebuilt(lost.row + shift))
            ):
                # The rebuilt copy: the spare cell with sparing, the
                # replacement spindle's cell in place without.
                data, check = lost.data, lost.check
        return (
            [(disk, row + shift) for disk, row in data],
            [(disk, row + shift) for disk, row in check],
        )

    def _run(self, stripe: int) -> None:
        """Read every data unit, then rewrite every check unit."""
        controller = self.controller
        access_id = self._next_id
        self._next_id += 1
        reads, writes = self._live_cells(stripe)
        remaining = {"reads": len(reads), "writes": len(writes)}

        def write_done() -> None:
            remaining["writes"] -= 1
            if remaining["writes"] > 0:
                return
            self._active -= 1
            self.recomputed += 1
            oracle = controller.oracle
            if oracle is not None:
                oracle.note_resync(stripe)
            self._refill_slot()

        def all_reads_good() -> None:
            for disk, offset in writes:
                self.writes_issued += 1
                controller.submit_raw(
                    disk,
                    offset,
                    True,
                    access_id,
                    write_done,
                    tag="resync-write",
                )

        def read_done() -> None:
            remaining["reads"] -= 1
            if remaining["reads"] == 0:
                all_reads_good()

        for disk, offset in reads:
            self.reads_issued += 1
            controller.submit_raw(
                disk,
                offset,
                False,
                access_id,
                read_done,
                tag="resync-read",
            )

    def _on_finish(self) -> None:
        if self.journal is not None:
            self.journal.reset()

    def to_dict(self) -> dict:
        return {
            "stripes_swept": self.stripes_total,
            "recomputed": self.recomputed,
            "parity_lost_skipped": self.parity_lost_skipped,
            "consistent_skipped": self.consistent_skipped,
            "data_lost_stripes": list(self.data_lost_stripes),
            "reads": self.reads_issued,
            "writes": self.writes_issued,
            "duration_ms": (
                self.duration_ms if self.finished_ms is not None else None
            ),
            "complete": self.complete,
            "aborted": self._aborted,
        }
