"""The abstract layout interface.

Every layout in this library is a deterministic, pure mapping between the
client's linear data-unit address space and array cells ``(disk, offset)``.
Layouts are periodic: a *layout pattern* of ``period`` rows repeats down the
disks.  Within one period there are ``stripes_per_period`` stripes, each
holding ``data_per_stripe`` contiguous client data units plus check unit(s),
and optionally distributed spare cells.

A layout is its stripes and its spare cells: a subclass declares one
period's stripes (:meth:`Layout._build_stripes`) and spare cells
(:meth:`Layout.spare_cells`), both as plain ``(disk, row)`` cells, and
the shared machinery here derives everything else — global/periodic
address translation, the inverse ``locate`` table, structural
validation, and where a lost cell's unit is rebuilt.  That is what lets
the simulator, the analytic working-set tool, and the property checker
treat PDDL and every baseline uniformly.

Hot-path representation: every consumer reads one per-period table,
:meth:`Layout.stripe_table` — the declared stripes, built once per
layout at first use.  Stripe ``s + c * stripes_per_period`` is stripe
``s`` shifted down ``c * period`` rows, so a global cell is a table cell
plus ``cycle * period`` and no stripe is ever materialised.  Two flat
tables derive from it in the same build, together with the check that
the stripes and the spare cells use every cell of the pattern exactly
once: ``locate`` indexes a list-of-lists ``[disk][row]`` grid and
``data_unit_cell`` a flat per-period array of data cells, so the
simulator's address translations are two integer indexings each.
:meth:`Layout.failure_table` adds what one failed disk does to each
stripe of the table: its lost cell and, with sparing, the spare cell
that holds the rebuilt unit — the first spare cell the layout lists for
the lost cell's row (:meth:`Layout.spares_by_row`), so a rebuilt unit
never leaves its row.  The access planner, the rebuild sweep, resync,
the integrity oracle, second-failure evaluation and the controller's
stripe peers all read these two tables.  A per-stripe reference model
in ``tests/layouts/reference_layout.py`` pins them cell for cell,
registry-wide.
"""

from __future__ import annotations

import abc
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.errors import ConfigurationError, MappingError
from repro.layouts.address import PhysicalAddress, Role, UnitInfo

#: A cell of one period as a plain ``(disk, row)`` tuple.
Cell = Tuple[int, int]
#: One stripe as ``(data cells, check cells)``.
Stripe = Tuple[Tuple[Cell, ...], Tuple[Cell, ...]]


class StripeTable(NamedTuple):
    """Every stripe of one period as plain cells (see
    :meth:`Layout.stripe_table`)."""

    period: int
    stripes_per_period: int
    data_per_stripe: int
    #: ``stripes[i]`` is ``(data cells, check cells)`` of period stripe ``i``.
    stripes: List[Stripe]


class LostCell(NamedTuple):
    """Where one failed disk cuts one stripe of a :class:`StripeTable`."""

    #: Row of the stripe's cell on the failed disk.
    row: int
    #: Its stripe position: a data position below ``data_per_stripe``,
    #: a check cell at ``data_per_stripe`` and above.
    position: int
    #: The stripe's data and check cells once the lost cell is rebuilt:
    #: with sparing it is replaced by the first spare cell of its row,
    #: without sparing it stays (the replacement spindle serves the old
    #: address).
    data: Tuple[Cell, ...]
    check: Tuple[Cell, ...]
    #: Where the rebuilt unit lives: ``(data + check)[position]``.
    home: Cell


def lost_cells(
    table: StripeTable,
    disk: int,
    spares_by_row: Optional[List[List[int]]],
) -> List[Optional[LostCell]]:
    """Per period stripe of ``table``: its :class:`LostCell` when ``disk``
    fails, or ``None`` if the stripe has no cell on ``disk``.

    ``spares_by_row`` (``None`` without sparing) lists each row's spare
    disks; a lost cell's unit is rebuilt into the first of its row.  A
    stripe uses a disk at most once (goal #1), so the first cell found on
    ``disk`` is the only one.
    """
    per_stripe = table.data_per_stripe
    out: List[Optional[LostCell]] = []
    for data, check in table.stripes:
        lost = None
        cells = data + check
        for position, (cell_disk, row) in enumerate(cells):
            if cell_disk != disk:
                continue
            if spares_by_row is not None:
                spares = spares_by_row[row]
                if not spares:
                    raise MappingError(
                        f"cell ({disk}, {row}) has no spare cell in its row"
                    )
                cells = (
                    cells[:position]
                    + ((spares[0], row),)
                    + cells[position + 1:]
                )
            lost = LostCell(
                row,
                position,
                cells[:per_stripe],
                cells[per_stripe:],
                cells[position],
            )
            break
        out.append(lost)
    return out


class Layout(abc.ABC):
    """Abstract data layout over ``n`` disks with stripe width ``k``.

    Subclasses declare one layout pattern: its stripes
    (:meth:`_build_stripes`) and, with distributed sparing, its spare
    cells (:meth:`spare_cells`).  Everything else — global stripe
    addressing, client data-unit translation, the inverse map, the
    failure tables — derives from those.
    """

    #: Human-readable scheme name, overridden per subclass.
    name: str = "abstract"

    def __init__(self, n: int, k: int):
        if k < 2:
            raise ConfigurationError(f"stripe width must be >= 2, got {k}")
        if n < k:
            raise ConfigurationError(
                f"need at least k = {k} disks, got n = {n}"
            )
        self.n = n
        self.k = k
        # Flat fast-path tables (built lazily, see _build_flat_tables).
        self._locate_grid: Optional[List[List[UnitInfo]]] = None
        self._data_cells: Optional[List[Tuple[int, int]]] = None
        # (period, stripes_per_period, data_per_stripe) snapshot: several
        # layouts compute these properties through non-trivial chains
        # (PDDL walks its permutation group), so the translation hot path
        # reads them once.  Layout geometry is immutable after
        # construction, which is what makes the snapshot sound.
        self._consts: Optional[Tuple[int, int, int]] = None
        # has_sparing memo: sits on degraded/rebuild planning hot paths
        # (every stripe decision consults it) and the spare list it is
        # derived from is fixed at construction.
        self._sparing: Optional[bool] = None
        # Tables built lazily at first use (see stripe_table,
        # spares_by_row and failure_table).
        self._stripe_table: Optional[StripeTable] = None
        self._spares_by_row: Optional[List[List[int]]] = None
        self._failure_tables: Dict[int, List[Optional[LostCell]]] = {}

    # ------------------------------------------------------------------
    # Quantities subclasses must define.
    # ------------------------------------------------------------------

    @property
    @abc.abstractmethod
    def period(self) -> int:
        """Rows (offsets) in one layout pattern."""

    @property
    @abc.abstractmethod
    def stripes_per_period(self) -> int:
        """Number of stripes in one layout pattern."""

    @abc.abstractmethod
    def _build_stripes(self) -> List[Stripe]:
        """Every stripe of one pattern, in stripe order, as ``(data
        cells, check cells)``; data cells in client order, every row in
        ``range(period)``."""

    def spare_cells(self) -> List[Cell]:
        """Distributed-spare cells of one pattern (empty if no sparing);
        the first one listed in a row receives that row's rebuilt
        units."""
        return []

    # ------------------------------------------------------------------
    # Derived quantities.
    # ------------------------------------------------------------------

    @property
    def data_per_stripe(self) -> int:
        """Contiguous client data units per stripe (goal #4)."""
        return self.k - 1

    @property
    def checks_per_stripe(self) -> int:
        return self.k - self.data_per_stripe

    @property
    def data_units_per_period(self) -> int:
        return self.stripes_per_period * self.data_per_stripe

    @property
    def has_sparing(self) -> bool:
        cached = self._sparing
        if cached is None:
            cached = self._sparing = bool(self.spare_cells())
        return cached

    @property
    def parity_overhead(self) -> float:
        """Fraction of array cells holding check units."""
        checks = self.stripes_per_period * self.checks_per_stripe
        return checks / (self.period * self.n)

    @property
    def spare_overhead(self) -> float:
        """Fraction of array cells holding spare units."""
        return len(self.spare_cells()) / (self.period * self.n)

    # ------------------------------------------------------------------
    # Global (multi-period) addressing.
    # ------------------------------------------------------------------

    def _layout_consts(self) -> Tuple[int, int, int]:
        """Snapshot ``(period, stripes_per_period, data_per_stripe)``."""
        consts = self._consts
        if consts is None:
            consts = (
                self.period,
                self.stripes_per_period,
                self.data_per_stripe,
            )
            self._consts = consts
        return consts

    def stripe_table(self) -> StripeTable:
        """Every stripe of one period as plain ``(disk, row)`` cells:
        global stripe ``s + c * stripes_per_period`` is ``stripes[s]``
        with ``c * period`` added to every row."""
        table = self._stripe_table
        if table is None:
            table = self._stripe_table = StripeTable(
                *self._layout_consts(), self._build_stripes()
            )
        return table

    def spares_by_row(self) -> List[List[int]]:
        """Per row of one period: the disks of its spare cells, in the
        order :meth:`spare_cells` lists them (built once)."""
        rows = self._spares_by_row
        if rows is None:
            rows = self._spares_by_row = [[] for _ in range(self.period)]
            for disk, row in self.spare_cells():
                rows[row].append(disk)
        return rows

    def failure_table(self, disk: int) -> List[Optional[LostCell]]:
        """:func:`lost_cells` of :meth:`stripe_table` for failed ``disk``,
        rebuilding into :meth:`spares_by_row` when the layout has sparing
        (derived once per disk)."""
        table = self._failure_tables.get(disk)
        if table is None:
            table = self._failure_tables[disk] = lost_cells(
                self.stripe_table(),
                disk,
                self.spares_by_row() if self.has_sparing else None,
            )
        return table

    def stripe_of_data_unit(self, unit: int) -> int:
        """Global stripe holding client data unit ``unit``."""
        if unit < 0:
            raise MappingError(f"negative data unit {unit}")
        return unit // self.data_per_stripe

    def data_unit_cell(self, unit: int) -> Tuple[int, int]:
        """Physical cell of a client data unit as a plain ``(disk,
        offset)`` tuple — the allocation-free core of
        :meth:`data_unit_address` (the planner builds its own op tuples
        from it)."""
        if unit < 0:
            raise MappingError(f"negative data unit {unit}")
        cells = self._data_cells
        if cells is None:
            cells = self._build_flat_tables()[1]
        consts = self._consts
        if consts is None:
            consts = self._layout_consts()
        period, stripes_per_period, per_stripe = consts
        stripe, position = divmod(unit, per_stripe)
        cycle, index = divmod(stripe, stripes_per_period)
        disk, row = cells[index * per_stripe + position]
        return disk, row + cycle * period

    def data_unit_cells(
        self, first_unit: int, count: int
    ) -> List[Tuple[int, int]]:
        """Cells of ``count`` consecutive data units starting at
        ``first_unit`` — :meth:`data_unit_cell` batched, with the bounds
        check and table lookups hoisted out of the per-unit loop and the
        two divmods replaced by an incrementing flat-table index (a unit
        step moves one slot through the period's flat cell array,
        wrapping into the next cycle)."""
        if first_unit < 0:
            raise MappingError(f"negative data unit {first_unit}")
        cells = self._data_cells
        if cells is None:
            cells = self._build_flat_tables()[1]
        period, stripes_per_period, per_stripe = self._layout_consts()
        units_per_cycle = stripes_per_period * per_stripe
        cycle, slot = divmod(first_unit, units_per_cycle)
        shift = cycle * period
        out = []
        append = out.append
        for _ in range(count):
            if slot == units_per_cycle:
                slot = 0
                shift += period
            disk, row = cells[slot]
            append((disk, row + shift))
            slot += 1
        return out

    def data_unit_address(self, unit: int) -> PhysicalAddress:
        """Physical cell of a client data unit."""
        return PhysicalAddress(*self.data_unit_cell(unit))

    def data_units_of_stripe(self, stripe_id: int) -> range:
        """Client data units stored in the given global stripe."""
        lo = stripe_id * self.data_per_stripe
        return range(lo, lo + self.data_per_stripe)

    # ------------------------------------------------------------------
    # Inverse mapping.
    # ------------------------------------------------------------------

    def locate(self, disk: int, offset: int) -> UnitInfo:
        """What lives at cell ``(disk, offset)``.

        Returns the unit's role, its global stripe id (-1 for spares), and
        its position within the stripe.
        """
        grid = self._locate_grid
        if grid is None:
            grid = self._build_flat_tables()[0]
        if not 0 <= disk < self.n:
            raise MappingError(f"disk {disk} outside 0..{self.n - 1}")
        if offset < 0:
            raise MappingError(f"negative offset {offset}")
        cycle, row = divmod(offset, self.period)
        info = grid[disk][row]
        if cycle == 0 or info.role is Role.SPARE:
            return info
        return UnitInfo(
            role=info.role,
            stripe=info.stripe + cycle * self.stripes_per_period,
            position=info.position,
        )

    def _build_flat_tables(
        self,
    ) -> Tuple[List[List[UnitInfo]], List[Tuple[int, int]]]:
        """Derive and cache the flat tables from :meth:`stripe_table` and
        the spare cells, checking that together they use every cell of
        the pattern exactly once.

        - ``grid[disk][row]``: the :class:`UnitInfo` of every cell of one
          pattern (the inverse map, minus hashing);
        - ``data_cells[stripe_index * data_per_stripe + position]``: the
          ``(disk, row)`` cell of every client data unit of one pattern
          (the forward map, minus stripe materialisation).
        """
        period, _, per_stripe, stripes = self.stripe_table()
        cells = []
        for s, (data, check) in enumerate(stripes):
            cells += [
                (c, UnitInfo(Role.DATA, s, j)) for j, c in enumerate(data)
            ]
            cells += [
                (c, UnitInfo(Role.CHECK, s, j))
                for j, c in enumerate(check, per_stripe)
            ]
        spare = UnitInfo(Role.SPARE, -1, -1)
        cells += [(c, spare) for c in self.spare_cells()]
        grid = [[None] * period for _ in range(self.n)]
        for (disk, row), info in cells:
            addr = PhysicalAddress(disk, row)
            if not 0 <= disk < self.n or not 0 <= row < period:
                raise MappingError(
                    f"{self.name}: cell {addr} outside the layout pattern"
                )
            if grid[disk][row] is not None:
                raise MappingError(f"{self.name}: cell {addr} mapped twice")
            grid[disk][row] = info
        if len(cells) != period * self.n:
            raise MappingError(
                f"{self.name}: pattern covers {len(cells)} cells,"
                f" expected {period * self.n}"
            )
        self._locate_grid = grid
        self._data_cells = [cell for data, _ in stripes for cell in data]
        return self._locate_grid, self._data_cells

    # ------------------------------------------------------------------
    # Validation and reporting.
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check structural sanity of one full pattern.

        - every cell of the ``period x n`` grid is used exactly once,
        - no stripe places two units on the same disk (goal #1).
        """
        self._build_flat_tables()
        for s, (data, check) in enumerate(self.stripe_table().stripes):
            disks = [disk for disk, _ in data + check]
            if len(set(disks)) != len(disks):
                raise MappingError(
                    f"{self.name}: stripe {s} uses a disk twice (goal #1)"
                )

    def mapping_table_entries(self) -> int:
        """Entries of persistent state the mapping needs (Table 3 metric).

        0 for purely arithmetic schemes; subclasses override.
        """
        return 0

    def describe(self) -> str:
        return (
            f"{self.name}(n={self.n}, k={self.k}, period={self.period},"
            f" stripes/period={self.stripes_per_period},"
            f" sparing={self.has_sparing})"
        )

    def __repr__(self) -> str:
        return self.describe()
