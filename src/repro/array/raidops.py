"""Pure RAID operation planning.

Translates a logical access into phases of per-unit physical operations,
with no reference to time or devices — the simulator executes plans, and the
analytic tools (disk working sets of Figure 3, operation counts of Figures
4/7/15/16) evaluate the *same* plans, which is what keeps the two views of
each experiment consistent.

Write handling follows §4.2:

- *full-stripe write*: every data unit of the stripe is written — no
  pre-reads, write data + new parity;
- *small write* (read-modify-write): read old data of the written units and
  the old parity, then write new data and parity; chosen when at most half
  of the stripe's data units change;
- *large write* (reconstruct write): read the untouched data units, then
  write new data and parity; chosen above half.

Degraded mode (one disk failed, lost data not yet in spare space):

- reads of lost units fan out to the stripe's surviving units;
- a write whose stripe lost a *written* data unit is forced large (paper:
  "every logical write must be implemented as a large write"); a stripe
  that lost an *untouched* data unit is forced small; a stripe that lost
  its parity writes data only.

Reconstruction mode (rebuild in progress): the background sweep has copied
*some* lost units back to redundancy.  A ``rebuilt(offset)`` predicate —
the reconstructor's rebuild frontier — decides per cell: units already
swept are read from (written to) their rebuilt copies exactly as after
the rebuild completes, un-rebuilt units are handled as in degraded mode
(on-the-fly reconstruction, forced write variants).  For layouts with
distributed sparing the rebuilt copy lives in the same-row spare cell;
for layouts without sparing it lives at the original address on a
*replacement* spindle.

Post-reconstruction mode (PDDL's distributed sparing): lost units have been
rebuilt into the same-row spare units, so accesses are simply redirected.

Planning is table-driven.  Writes and non-fault-free reads walk the
touched stripes through the layout's per-period
:meth:`~repro.layouts.base.Layout.stripe_table` — plain ``(disk, row)``
cells, offset ``row + cycle * period`` — and take the failed disk's lost
cell, its row and its spare redirect from
:meth:`~repro.layouts.base.Layout.failure_table`, derived once per
failed disk.  No stripe is materialised, and planning allocates little
beyond the ops it returns.  Only read plans are
deduplicated: a degraded fan-out re-reads cells the access also reads
directly, while a write phase cannot repeat a cell (a stripe never uses a
disk twice, stripes are disjoint, and spare cells belong to no stripe).
"""

from __future__ import annotations

import enum
from typing import Callable, List, NamedTuple, Optional, Set, Tuple

from repro.errors import ConfigurationError, MappingError
from repro.layouts.base import Layout


class ArrayMode(enum.Enum):
    """Operating condition of the array (paper's ff / f1 / post-recon)."""

    FAULT_FREE = "fault-free"
    DEGRADED = "degraded"                      # f1, rebuild not yet started
    RECONSTRUCTION = "reconstruction"          # rebuild sweep in progress
    POST_RECONSTRUCTION = "post-reconstruction"  # spare space holds rebuilt data
    DATA_LOSS = "data-loss"                    # terminal: a unit has no copy left


#: ``rebuilt(offset) -> bool``: has the failed disk's cell at ``offset``
#: already been rebuilt into its spare cell?  (The reconstruction-mode
#: rebuild frontier.)
RebuiltPredicate = Callable[[int], bool]


class UnitOp(NamedTuple):
    """One stripe-unit-sized physical operation."""

    disk: int
    offset: int
    is_write: bool


#: Builds a :class:`UnitOp` from one ``(disk, offset, is_write)`` tuple
#: without the namedtuple's Python-level ``__new__`` (the planner's
#: inner loops make one per op).
_new = tuple.__new__


class AccessPlan(NamedTuple):
    """Phased operation graph; phase i+1 starts when phase i completes."""

    phases: List[List[UnitOp]]

    def all_ops(self) -> List[UnitOp]:
        return [op for phase in self.phases for op in phase]

    def disks_touched(self) -> Set[int]:
        """The paper's *disk working set* of the access."""
        return {op.disk for op in self.all_ops()}

    def operation_count(self) -> int:
        return sum(len(phase) for phase in self.phases)


def plan_access(
    layout: Layout,
    first_unit: int,
    unit_count: int,
    is_write: bool,
    mode: ArrayMode = ArrayMode.FAULT_FREE,
    failed_disk: Optional[int] = None,
    rebuilt: Optional[RebuiltPredicate] = None,
) -> AccessPlan:
    """Plan a logical access of ``unit_count`` contiguous data units.

    ``failed_disk`` is required (and only allowed) outside fault-free mode;
    ``rebuilt`` is the reconstruction-mode rebuild frontier and is required
    (and only allowed) in :attr:`ArrayMode.RECONSTRUCTION`.
    """
    if unit_count < 1:
        raise ConfigurationError(f"access needs >= 1 unit, got {unit_count}")
    if first_unit < 0:
        raise ConfigurationError(f"negative start unit {first_unit}")
    if mode is ArrayMode.DATA_LOSS:
        raise MappingError(
            "the array has lost data; accesses can no longer be planned"
        )
    if mode is ArrayMode.FAULT_FREE:
        if failed_disk is not None:
            raise ConfigurationError("fault-free mode has no failed disk")
    else:
        if failed_disk is None or not 0 <= failed_disk < layout.n:
            raise ConfigurationError(
                f"mode {mode.value} needs a valid failed disk"
            )
    if mode is ArrayMode.RECONSTRUCTION:
        if rebuilt is None:
            raise ConfigurationError(
                "reconstruction mode needs a rebuilt(offset) predicate"
            )
    elif rebuilt is not None:
        raise ConfigurationError(
            f"mode {mode.value} takes no rebuild frontier"
        )
    if mode is ArrayMode.POST_RECONSTRUCTION and not layout.has_sparing:
        raise MappingError(
            f"{layout.name} has no spare space for post-reconstruction mode"
        )

    if is_write:
        return _plan_write(
            layout, first_unit, unit_count, mode, failed_disk, rebuilt
        )
    cells = read_cells(
        layout, first_unit, unit_count, mode, failed_disk, rebuilt
    )
    return AccessPlan(phases=[[_new(UnitOp, (d, o, False)) for d, o in cells]])


# ----------------------------------------------------------------------
# Reads.
# ----------------------------------------------------------------------


def read_cells(
    layout: Layout,
    first_unit: int,
    unit_count: int,
    mode: ArrayMode,
    failed_disk: Optional[int],
    rebuilt: Optional[RebuiltPredicate],
) -> List[Tuple[int, int]]:
    """The ``(disk, offset)`` cells a read touches, in plan order, each
    once: the single phase of :func:`plan_access`'s read plan.

    The arguments are :func:`plan_access`'s and are not checked here;
    the array controller calls this directly with its own (consistent)
    mode, failed disk and rebuild frontier.
    """
    if mode is ArrayMode.FAULT_FREE:
        # Hot path (the vast majority of Figure 5/6 traffic): straight
        # translation.  The data-unit mapping is injective — distinct
        # units land in distinct cells — so nothing repeats.
        return layout.data_unit_cells(first_unit, unit_count)
    period, per_period, per_stripe, stripes = layout.stripe_table()
    post = mode is ArrayMode.POST_RECONSTRUCTION
    recon = mode is ArrayMode.RECONSTRUCTION
    cells: List[Tuple[int, int]] = []
    cell = cells.append
    # Touched stripes first..last; positions lo..hi-1 of each are read.
    first, first_lo = divmod(first_unit, per_stripe)
    last, end = divmod(first_unit + unit_count - 1, per_stripe)
    for stripe in range(first, last + 1):
        lo = first_lo if stripe == first else 0
        hi = end + 1 if stripe == last else per_stripe
        cycle, index = divmod(stripe, per_period)
        shift = cycle * period
        data, check = stripes[index]
        for disk, row in data[lo:hi]:
            if disk != failed_disk:
                cell((disk, row + shift))
            elif post or (recon and rebuilt(row + shift)):
                # Lost unit already swept: read the rebuilt copy — the
                # spare cell (distributed sparing) or the replacement
                # spindle.
                lost = layout.failure_table(failed_disk)[index]
                disk, row = lost.data[lost.position]
                cell((disk, row + shift))
            else:  # DEGRADED or un-rebuilt: reconstruct on the fly
                for disk, row in data + check:
                    if disk != failed_disk:
                        cell((disk, row + shift))
    # A degraded fan-out re-reads cells the access also reads directly:
    # keep each cell's first occurrence.
    return list(dict.fromkeys(cells))


# ----------------------------------------------------------------------
# Writes.
# ----------------------------------------------------------------------


def _plan_write(
    layout: Layout,
    first_unit: int,
    unit_count: int,
    mode: ArrayMode,
    failed_disk: Optional[int],
    rebuilt: Optional[RebuiltPredicate],
) -> AccessPlan:
    """Plan each touched stripe's §4.2 write, without dedupe: a stripe
    never uses a disk twice, stripes are disjoint and spare cells belong
    to no stripe, so no phase can hold a cell twice."""
    period, per_period, per_stripe, stripes = layout.stripe_table()
    lost_cells = (
        None
        if mode is ArrayMode.FAULT_FREE
        else layout.failure_table(failed_disk)
    )
    post = mode is ArrayMode.POST_RECONSTRUCTION
    recon = mode is ArrayMode.RECONSTRUCTION
    reads: List[UnitOp] = []
    writes: List[UnitOp] = []
    read = reads.append
    write = writes.append
    # Touched stripes first..last; positions lo..hi-1 of each are written.
    first, first_lo = divmod(first_unit, per_stripe)
    last, end = divmod(first_unit + unit_count - 1, per_stripe)
    for stripe in range(first, last + 1):
        lo = first_lo if stripe == first else 0
        hi = end + 1 if stripe == last else per_stripe
        cycle, index = divmod(stripe, per_period)
        shift = cycle * period
        data, check = stripes[index]
        lost = None if lost_cells is None else lost_cells[index]
        if lost is not None and (
            post or (recon and rebuilt(lost.row + shift))
        ):
            # Behind the rebuild frontier (or after the rebuild): the
            # rebuilt copy — spare cell with sparing, replacement spindle
            # without — makes this a fault-free stripe.
            data, check = lost.data, lost.check
            lost = None
        written = data[lo:hi]
        if lost is None:
            # A full-stripe write takes the large path with nothing to read.
            small = hi - lo <= per_stripe // 2
        elif lost.position >= per_stripe:
            # Parity lost: write the data units, nothing to maintain.
            for disk, row in written:
                write(_new(UnitOp, (disk, row + shift, True)))
            continue
        elif lo <= lost.position < hi:
            # Lost unit is being overwritten: forced large write — read
            # every untouched data unit (all survive), write survivors
            # and parity.
            small = False
            written = data[lo:lost.position] + data[lost.position + 1:hi]
        else:
            # Lost unit is untouched: forced small write — the parity
            # delta needs only old data of written units plus old parity.
            small = True
        for disk, row in written:
            write(_new(UnitOp, (disk, row + shift, True)))
        if small:
            for disk, row in written + check:
                read(_new(UnitOp, (disk, row + shift, False)))
        else:
            for disk, row in data[:lo] + data[hi:]:
                read(_new(UnitOp, (disk, row + shift, False)))
        for disk, row in check:
            write(_new(UnitOp, (disk, row + shift, True)))
    if reads:
        return AccessPlan(phases=[reads, writes])
    return AccessPlan(phases=[writes])

