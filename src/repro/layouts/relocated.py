"""A layout view with one completed spare relocation folded in.

After a distributed-sparing rebuild finishes, the failed disk's units
live permanently in spare cells: each in the first spare cell the base
layout lists for its row.  If a *second* disk then fails, the planner
does not need multi-failure logic: from the array's point of view the
completed relocation is simply the new mapping, and the new failure is
an ordinary single failure against that mapping.  :class:`RelocatedView`
is that mapping — it wraps the base layout, moves every unit of the
relocated disk to its spare cell, and reports ``has_sparing = False``
(the spare space is spent), so the planner and reconstructor drive the
second repair cycle onto a replacement spindle exactly like any
no-sparing layout.

The view is duck-typed rather than a :class:`~repro.layouts.base.Layout`
subclass: the base class validates that a pattern covers the full
``n x period`` grid, which no longer holds once one spindle's cells are
dead.  Everything it knows comes from the base layout's
:meth:`~repro.layouts.base.Layout.failure_table` for the relocated disk:
its :meth:`stripe_table` is the base table with each lost cell replaced
by its spare, and ``locate`` resolves a spare cell through the same
table's rows.  That is the surface every stripe consumer reads — the
planner, the rebuild sweep, resync, second-failure evaluation and the
controller's stripe peers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError, MappingError
from repro.layouts.address import PhysicalAddress, UnitInfo
from repro.layouts.base import LostCell, StripeTable, lost_cells


class RelocatedView:
    """The base layout with disk ``relocated_disk``'s units in spare space.

    Addresses on the relocated disk are never returned: data units map to
    their spare targets, stripes list the targets as members, and
    ``locate`` resolves a spare target cell to the unit relocated into
    it.  Asking about the relocated disk itself raises — by construction
    nothing should be planned there.
    """

    def __init__(self, base, relocated_disk: int):
        if not base.has_sparing:
            raise ConfigurationError(
                f"{base.name} has no spare space to relocate into"
            )
        if not 0 <= relocated_disk < base.n:
            raise ConfigurationError(
                f"disk {relocated_disk} outside 0..{base.n - 1}"
            )
        self.base = base
        self.relocated_disk = relocated_disk
        self.name = f"relocated({base.name}, disk {relocated_disk})"
        self.n = base.n
        self.k = base.k
        # Inverse of the relocation over one period: spare target cell
        # -> relocated source row on the failed disk.
        inverse: Dict[Tuple[int, int], int] = {}
        for lost in base.failure_table(relocated_disk):
            if lost is None:
                continue
            target = lost.home
            if target[0] == relocated_disk:
                raise MappingError(
                    f"{base.name}: cell ({relocated_disk}, {lost.row})"
                    " relocates onto its own failed spindle"
                )
            inverse[target] = lost.row
        self._spare_source = inverse
        self._stripe_table: Optional[StripeTable] = None
        self._failure_tables: Dict[int, List[Optional[LostCell]]] = {}

    # ------------------------------------------------------------------
    # Geometry (delegated).
    # ------------------------------------------------------------------

    @property
    def period(self) -> int:
        return self.base.period

    @property
    def stripes_per_period(self) -> int:
        return self.base.stripes_per_period

    @property
    def data_per_stripe(self) -> int:
        return self.base.data_per_stripe

    @property
    def checks_per_stripe(self) -> int:
        return self.base.checks_per_stripe

    @property
    def data_units_per_period(self) -> int:
        return self.base.data_units_per_period

    @property
    def has_sparing(self) -> bool:
        # The spare space is consumed by the folded-in relocation.
        return False

    # ------------------------------------------------------------------
    # Forward mapping.
    # ------------------------------------------------------------------

    def stripe_table(self) -> StripeTable:
        """The base table after the relocation: each stripe as the base
        layout maps it in post-reconstruction mode for the relocated
        disk."""
        table = self._stripe_table
        if table is None:
            base = self.base.stripe_table()
            moved = self.base.failure_table(self.relocated_disk)
            table = self._stripe_table = base._replace(
                stripes=[
                    stripe if lost is None else (lost.data, lost.check)
                    for stripe, lost in zip(base.stripes, moved)
                ]
            )
        return table

    def failure_table(self, disk: int) -> List[Optional[LostCell]]:
        """:func:`~repro.layouts.base.lost_cells` of the relocated table;
        no spare redirect, as the spare space is spent."""
        table = self._failure_tables.get(disk)
        if table is None:
            table = self._failure_tables[disk] = lost_cells(
                self.stripe_table(), disk, None
            )
        return table

    def data_unit_cells(
        self, first_unit: int, count: int
    ) -> List[Tuple[int, int]]:
        if first_unit < 0:
            raise MappingError(f"negative data unit {first_unit}")
        period, per_period, per_stripe, stripes = self.stripe_table()
        out = []
        for unit in range(first_unit, first_unit + count):
            stripe, position = divmod(unit, per_stripe)
            cycle, index = divmod(stripe, per_period)
            disk, row = stripes[index][0][position]
            out.append((disk, row + cycle * period))
        return out

    def data_unit_cell(self, unit: int) -> Tuple[int, int]:
        return self.data_unit_cells(unit, 1)[0]

    def data_unit_address(self, unit: int) -> PhysicalAddress:
        return PhysicalAddress(*self.data_unit_cell(unit))

    def stripe_of_data_unit(self, unit: int) -> int:
        return self.base.stripe_of_data_unit(unit)

    def data_units_of_stripe(self, stripe_id: int) -> range:
        return self.base.data_units_of_stripe(stripe_id)

    # ------------------------------------------------------------------
    # Inverse mapping.
    # ------------------------------------------------------------------

    def locate(self, disk: int, offset: int) -> UnitInfo:
        if disk == self.relocated_disk:
            raise MappingError(
                f"disk {disk} was relocated away; its cells hold no data"
            )
        if not 0 <= disk < self.n:
            raise MappingError(f"disk {disk} outside 0..{self.n - 1}")
        if offset < 0:
            raise MappingError(f"negative offset {offset}")
        period = self.base.period
        cycle, row = divmod(offset, period)
        source_row = self._spare_source.get((disk, row))
        if source_row is not None:
            return self.base.locate(
                self.relocated_disk, source_row + cycle * period
            )
        return self.base.locate(disk, offset)

    def describe(self) -> str:
        return (
            f"{self.name}(n={self.n}, k={self.k}, period={self.period},"
            f" sparing=False)"
        )

    def __repr__(self) -> str:
        return self.describe()
