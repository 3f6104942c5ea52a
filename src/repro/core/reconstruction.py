"""Reconstruction planning over any layout.

Given a failed disk, produce — purely from the layout mapping — the plan of
work a rebuild performs: for every lost stripe unit, which surviving cells
must be read and (for layouts with distributed sparing) which spare cell
receives the rebuilt unit.  The simulator's background reconstructor and the
analytic tally tools (goal #3 checking, Figure-3-style degraded working
sets) both consume these plans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.errors import ConfigurationError
from repro.layouts.address import PhysicalAddress, Role
from repro.layouts.base import Layout


#: Builds a :class:`PhysicalAddress` without the namedtuple's
#: Python-level ``__new__`` (the rebuild sweep makes one per cell).
_new = tuple.__new__


@dataclass(frozen=True)
class RebuildStep:
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


def rebuild_plan(
    layout: Layout, failed_disk: int, rows: Optional[int] = None
) -> Iterator[RebuildStep]:
    """Yield the rebuild steps for ``failed_disk`` over ``rows`` offsets.

    ``rows`` defaults to one layout period — by periodicity, per-disk load
    ratios over any whole number of periods equal the one-period ratios.
    """
    if not 0 <= failed_disk < layout.n:
        raise ConfigurationError(
            f"failed disk {failed_disk} outside 0..{layout.n - 1}"
        )
    if rows is None:
        rows = layout.period
    period, per_period, _, _ = layout.stripe_table()
    lost_cells = layout.failure_table(failed_disk)
    sparing = layout.has_sparing
    for offset in range(rows):
        info = layout.locate(failed_disk, offset)
        if info.role is Role.SPARE:
            continue
        cycle, index = divmod(info.stripe, per_period)
        shift = cycle * period
        lost = lost_cells[index]
        # Every cell of the rebuilt stripe but the rebuilt unit's home:
        # its same-row spare with sparing, the lost cell itself without.
        reads = [
            _new(PhysicalAddress, (disk, row + shift))
            for disk, row in lost.data + lost.check
        ]
        home = reads.pop(lost.position)
        yield RebuildStep(
            lost=PhysicalAddress(failed_disk, offset),
            stripe=info.stripe,
            reads=reads,
            write=home if sparing else None,
        )


def count_lost_units(
    layout: Layout, failed_disk: int, rows: Optional[int] = None
) -> int:
    """How many rebuild steps :func:`rebuild_plan` will yield.

    Counts the failed disk's non-spare cells over ``rows`` offsets
    arithmetically (no plan materialization), so a reconstructor can
    report progress against a known total.
    """
    if not 0 <= failed_disk < layout.n:
        raise ConfigurationError(
            f"failed disk {failed_disk} outside 0..{layout.n - 1}"
        )
    if rows is None:
        rows = layout.period
    if rows < 0:
        raise ConfigurationError(f"negative row count {rows}")
    spare_offsets = [
        addr.offset
        for addr in layout.spare_addresses_in_period()
        if addr.disk == failed_disk
    ]
    full_periods, remainder = divmod(rows, layout.period)
    spares = full_periods * len(spare_offsets) + sum(
        1 for offset in spare_offsets if offset < remainder
    )
    return rows - spares


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
