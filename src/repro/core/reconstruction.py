"""Reconstruction planning over any layout.

Given a failed disk, produce — purely from the layout mapping — the plan of
work a rebuild performs: for every lost stripe unit, which surviving cells
must be read and (for layouts with distributed sparing) which spare cell
receives the rebuilt unit.  The simulator's background reconstructor and the
analytic tally tools (goal #3 checking, Figure-3-style degraded working
sets) both consume these plans.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional

from repro.errors import ConfigurationError
from repro.layouts.address import PhysicalAddress
from repro.layouts.base import Layout


#: Builds a :class:`PhysicalAddress` or :class:`RebuildStep` without the
#: namedtuple's Python-level ``__new__`` (the rebuild sweep makes one
#: step per lost unit and one address per cell).
_new = tuple.__new__


class RebuildStep(NamedTuple):
    """Work to rebuild one lost stripe unit.

    ``lost`` is the failed cell; ``reads`` the surviving cells of its stripe;
    ``write`` the spare cell that receives the result (``None`` without
    sparing).  Lost *spare* cells produce no step — there is nothing to
    rebuild.
    """

    lost: PhysicalAddress
    stripe: int
    reads: List[PhysicalAddress]
    write: Optional[PhysicalAddress]


def _stripe_rows(layout: Layout, failed_disk: int) -> List[Optional[int]]:
    """Per row of one period: the period stripe whose cell on
    ``failed_disk`` sits there, or ``None`` where the disk holds no
    stripe unit (a spare cell).  The rows are those of the disk's
    :meth:`~repro.layouts.base.Layout.failure_table` entries."""
    if not 0 <= failed_disk < layout.n:
        raise ConfigurationError(
            f"failed disk {failed_disk} outside 0..{layout.n - 1}"
        )
    stripe_at: List[Optional[int]] = [None] * layout.stripe_table().period
    for index, lost in enumerate(layout.failure_table(failed_disk)):
        if lost is not None:
            stripe_at[lost.row] = index
    return stripe_at


def rebuild_plan(
    layout: Layout, failed_disk: int, rows: Optional[int] = None
) -> Iterator[RebuildStep]:
    """Yield the rebuild steps for ``failed_disk`` over ``rows`` offsets.

    ``rows`` defaults to one layout period — by periodicity, per-disk load
    ratios over any whole number of periods equal the one-period ratios.
    """
    stripe_at = _stripe_rows(layout, failed_disk)
    period, per_period, _, _ = layout.stripe_table()
    if rows is None:
        rows = period
    if rows > 0:
        # A relocated view's own disk holds nothing; its locate raises.
        layout.locate(failed_disk, 0)
    lost_cells = layout.failure_table(failed_disk)
    sparing = layout.has_sparing
    for offset in range(rows):
        cycle, row = divmod(offset, period)
        index = stripe_at[row]
        if index is None:
            continue
        shift = cycle * period
        lost = lost_cells[index]
        # Every cell of the rebuilt stripe but the rebuilt unit's home:
        # its same-row spare with sparing, the lost cell itself without.
        reads = [
            _new(PhysicalAddress, (disk, cell_row + shift))
            for disk, cell_row in lost.data + lost.check
        ]
        home = reads.pop(lost.position)
        yield _new(
            RebuildStep,
            (
                _new(PhysicalAddress, (failed_disk, offset)),
                index + cycle * per_period,
                reads,
                home if sparing else None,
            ),
        )


def count_lost_units(
    layout: Layout, failed_disk: int, rows: Optional[int] = None
) -> int:
    """How many rebuild steps :func:`rebuild_plan` will yield.

    Counts the failed disk's stripe rows over ``rows`` offsets
    arithmetically (no plan materialization), so a reconstructor can
    report progress against a known total.
    """
    stripe_at = _stripe_rows(layout, failed_disk)
    if rows is None:
        rows = len(stripe_at)
    if rows < 0:
        raise ConfigurationError(f"negative row count {rows}")
    full_periods, remainder = divmod(rows, len(stripe_at))
    per_period = len(stripe_at) - stripe_at.count(None)
    return full_periods * per_period + sum(
        1 for index in stripe_at[:remainder] if index is not None
    )


def rebuild_read_tally(
    layout: Layout, failed_disk: int = 0
) -> Dict[int, int]:
    """Per-survivor read counts for one period's rebuild (goal #3 metric).

    For a PDDL layout this equals
    :meth:`repro.core.permutation.PermutationGroup.combined_tally`; computing
    it through the generic plan lets tests cross-check the two and lets the
    same metric rank DATUM / PRIME / Parity Declustering.
    """
    tally = {d: 0 for d in range(layout.n) if d != failed_disk}
    for step in rebuild_plan(layout, failed_disk):
        for addr in step.reads:
            tally[addr.disk] += 1
    return tally


def rebuild_write_tally(
    layout: Layout, failed_disk: int = 0
) -> Dict[int, int]:
    """Per-survivor spare-write counts for one period's rebuild."""
    tally = {d: 0 for d in range(layout.n) if d != failed_disk}
    for step in rebuild_plan(layout, failed_disk):
        if step.write is not None:
            tally[step.write.disk] += 1
    return tally


def reconstruction_deviation(layout: Layout, failed_disk: int = 0) -> int:
    """max - min of the rebuild read tally; 0 means goal #3 holds exactly."""
    tally = rebuild_read_tally(layout, failed_disk)
    return max(tally.values()) - min(tally.values())
