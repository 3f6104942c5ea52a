"""The abstract layout interface.

Every layout in this library is a deterministic, pure mapping between the
client's linear data-unit address space and array cells ``(disk, offset)``.
Layouts are periodic: a *layout pattern* of ``period`` rows repeats down the
disks.  Within one period there are ``stripes_per_period`` stripes, each
holding ``data_per_stripe`` contiguous client data units plus check unit(s),
and optionally distributed spare cells.

The shared machinery here (global/periodic address translation, the inverse
``locate`` table, structural validation) is what lets the simulator, the
analytic working-set tool, and the property checker treat PDDL and every
baseline uniformly.

Hot-path representation: the forward and inverse maps are served from
*flat* tables built once per layout — ``locate`` indexes a
list-of-lists ``[disk][row]`` grid and ``data_unit_address`` a flat
per-period array of ``(disk, row)`` cells — so the simulator's millions
of address translations are two integer indexings each, with no
namedtuple hashing and no per-call stripe materialisation.  The access
planner reads two more: :meth:`Layout.stripe_table`, every stripe of one
period as plain ``(disk, row)`` data and check cells, and
:meth:`Layout.failure_table`, what one failed disk does to each of those
stripes (its lost cell and, with sparing, the same-row spare that
replaces it).  Stripe ``s + c * stripes_per_period`` is stripe ``s``
shifted down ``c * period`` rows and every relocation stays in its row,
so a global cell is a table cell plus ``cycle * period`` and planning
materialises no stripe.  The original ``Dict[PhysicalAddress,
UnitInfo]`` period table survives as :meth:`locate_reference` /
:meth:`data_unit_address_reference`; the registry-wide property test in
``tests/layouts/test_flat_fast_path.py`` pins the two paths cell-for-cell
equal across multiple periods, and the stripe table equal to
:meth:`Layout.stripe_units`.
"""

from __future__ import annotations

import abc
from collections import OrderedDict
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.errors import ConfigurationError, MappingError
from repro.layouts.address import PhysicalAddress, Role, StripeUnits, UnitInfo

#: Shifted-cycle stripes kept per layout (see :meth:`Layout.stripe_units`).
_SHIFTED_STRIPE_CACHE_SIZE = 256

#: A cell of one period as a plain ``(disk, row)`` tuple.
Cell = Tuple[int, int]


class StripeTable(NamedTuple):
    """Every stripe of one period as plain cells (see
    :meth:`Layout.stripe_table`)."""

    period: int
    stripes_per_period: int
    data_per_stripe: int
    #: ``stripes[i]`` is ``(data cells, check cells)`` of period stripe ``i``.
    stripes: List[Tuple[Tuple[Cell, ...], Tuple[Cell, ...]]]


class LostCell(NamedTuple):
    """Where one failed disk cuts one stripe of a :class:`StripeTable`."""

    #: Row of the stripe's cell on the failed disk.
    row: int
    #: Its stripe position: a data position below ``data_per_stripe``,
    #: a check cell at ``data_per_stripe`` and above.
    position: int
    #: The stripe's data and check cells once the lost cell is rebuilt:
    #: with sparing it is replaced by its same-row spare cell, without
    #: sparing it stays (the replacement spindle serves the old address).
    data: Tuple[Cell, ...]
    check: Tuple[Cell, ...]


def lost_cells(
    table: StripeTable,
    disk: int,
    relocation_target: Optional[Callable[[PhysicalAddress], PhysicalAddress]],
) -> List[Optional[LostCell]]:
    """Per period stripe of ``table``: its :class:`LostCell` when ``disk``
    fails, or ``None`` if the stripe has no cell on ``disk``.

    ``relocation_target`` (``None`` without sparing) gives each lost
    cell's spare.  A stripe uses a disk at most once (goal #1), so the
    first cell found on ``disk`` is the only one.
    """
    per_stripe = table.data_per_stripe
    out: List[Optional[LostCell]] = []
    for data, check in table.stripes:
        lost = None
        cells = data + check
        for position, (cell_disk, row) in enumerate(cells):
            if cell_disk != disk:
                continue
            if relocation_target is not None:
                target = relocation_target(PhysicalAddress(disk, row))
                if target.offset != row:
                    # A cross-row target would break the cycle shift.
                    raise MappingError(
                        f"cell ({disk}, {row}) relocates to {target},"
                        " outside its row"
                    )
                cells = (
                    cells[:position]
                    + ((target.disk, row),)
                    + cells[position + 1:]
                )
            lost = LostCell(
                row, position, cells[:per_stripe], cells[per_stripe:]
            )
            break
        out.append(lost)
    return out


class Layout(abc.ABC):
    """Abstract data layout over ``n`` disks with stripe width ``k``.

    Subclasses implement :meth:`stripe_units_in_period` (the forward map for
    one layout pattern) and :meth:`spare_addresses_in_period`; everything
    else — global stripe addressing, client data-unit translation, the
    inverse map — derives from those.
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
        self._locate_table: Optional[Dict[PhysicalAddress, UnitInfo]] = None
        self._stripe_cache: Dict[int, StripeUnits] = {}
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
        # Small LRU of *shifted* (cycle > 0) StripeUnits.  The access
        # planner never asks for one (it walks stripe_table); the hot
        # callers left are the rebuild sweeps and the controller's hedge
        # and escalation stripe peers, which revisit the same stripes
        # (one mc_campaign pass: 17,916 hits, 88 misses).
        self._shifted_cache: "OrderedDict[int, StripeUnits]" = OrderedDict()
        # Planner tables (built lazily at the first plan that needs them,
        # see stripe_table / failure_table).
        self._stripe_table: Optional[StripeTable] = None
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
    def stripe_units_in_period(self, stripe_index: int) -> StripeUnits:
        """Physical cells of stripe ``stripe_index`` (0-based within the
        pattern); all offsets must lie in ``range(period)``."""

    def spare_addresses_in_period(self) -> List[PhysicalAddress]:
        """Distributed-spare cells of one pattern (empty if no sparing)."""
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
            cached = self._sparing = bool(self.spare_addresses_in_period())
        return cached

    @property
    def parity_overhead(self) -> float:
        """Fraction of array cells holding check units."""
        checks = self.stripes_per_period * self.checks_per_stripe
        return checks / (self.period * self.n)

    @property
    def spare_overhead(self) -> float:
        """Fraction of array cells holding spare units."""
        return len(self.spare_addresses_in_period()) / (self.period * self.n)

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

    def stripe_units(self, stripe_id: int) -> StripeUnits:
        """Physical cells of a global stripe (period-extended)."""
        if stripe_id < 0:
            raise MappingError(f"negative stripe id {stripe_id}")
        period, stripes_per_period, _ = self._layout_consts()
        cycle, index = divmod(stripe_id, stripes_per_period)
        base = self._stripe_cache.get(index)
        if base is None:
            base = self.stripe_units_in_period(index)
            self._stripe_cache[index] = base
        if cycle == 0:
            return base
        shifted_cache = self._shifted_cache
        shifted = shifted_cache.get(stripe_id)
        if shifted is not None:
            shifted_cache.move_to_end(stripe_id)
            return shifted
        shift = cycle * period
        shifted = StripeUnits(
            data=[PhysicalAddress(d, o + shift) for d, o in base.data],
            check=[PhysicalAddress(d, o + shift) for d, o in base.check],
        )
        shifted_cache[stripe_id] = shifted
        if len(shifted_cache) > _SHIFTED_STRIPE_CACHE_SIZE:
            shifted_cache.popitem(last=False)
        return shifted

    def stripe_table(self) -> StripeTable:
        """Every stripe of one period as plain ``(disk, row)`` cells:
        ``stripe_units(s + c * stripes_per_period)`` is
        ``stripes[s]`` with ``c * period`` added to every row."""
        table = self._stripe_table
        if table is None:
            stripes = []
            for s in range(self.stripes_per_period):
                units = self.stripe_units_in_period(s)
                stripes.append(
                    (
                        tuple((d, o) for d, o in units.data),
                        tuple((d, o) for d, o in units.check),
                    )
                )
            table = self._stripe_table = StripeTable(
                *self._layout_consts(), stripes
            )
        return table

    def failure_table(self, disk: int) -> List[Optional[LostCell]]:
        """:func:`lost_cells` of :meth:`stripe_table` for failed ``disk``,
        with the spare redirect when the layout has sparing (derived once
        per disk)."""
        table = self._failure_tables.get(disk)
        if table is None:
            table = self._failure_tables[disk] = lost_cells(
                self.stripe_table(),
                disk,
                self.relocation_target if self.has_sparing else None,
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

    def data_unit_address_reference(self, unit: int) -> PhysicalAddress:
        """Reference path for :meth:`data_unit_address`: materialise the
        whole stripe and index its data list (the pre-flat-table
        implementation, kept for the equivalence property test)."""
        stripe = self.stripe_of_data_unit(unit)
        position = unit % self.data_per_stripe
        return self.stripe_units(stripe).data[position]

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

    def locate_reference(self, disk: int, offset: int) -> UnitInfo:
        """Reference path for :meth:`locate`: the dict-keyed period table
        (the pre-flat-table implementation, kept for the equivalence
        property test)."""
        if not 0 <= disk < self.n:
            raise MappingError(f"disk {disk} outside 0..{self.n - 1}")
        if offset < 0:
            raise MappingError(f"negative offset {offset}")
        cycle, row = divmod(offset, self.period)
        info = self._period_table()[PhysicalAddress(disk, row)]
        if info.role is Role.SPARE:
            return info
        return UnitInfo(
            role=info.role,
            stripe=info.stripe + cycle * self.stripes_per_period,
            position=info.position,
        )

    def _period_table(self) -> Dict[PhysicalAddress, UnitInfo]:
        if self._locate_table is None:
            table: Dict[PhysicalAddress, UnitInfo] = {}
            for s in range(self.stripes_per_period):
                units = self.stripe_units_in_period(s)
                for j, addr in enumerate(units.data):
                    self._table_insert(table, addr, UnitInfo(Role.DATA, s, j))
                for j, addr in enumerate(units.check):
                    self._table_insert(
                        table,
                        addr,
                        UnitInfo(Role.CHECK, s, self.data_per_stripe + j),
                    )
            for addr in self.spare_addresses_in_period():
                self._table_insert(table, addr, UnitInfo(Role.SPARE, -1, -1))
            expected = self.period * self.n
            if len(table) != expected:
                raise MappingError(
                    f"{self.name}: pattern covers {len(table)} cells,"
                    f" expected {expected}"
                )
            self._locate_table = table
        return self._locate_table

    def _build_flat_tables(
        self,
    ) -> Tuple[List[List[UnitInfo]], List[Tuple[int, int]]]:
        """Build and cache the flat fast-path tables from the dict-keyed
        period table.

        - ``grid[disk][row]``: the :class:`UnitInfo` of every cell of one
          pattern (the inverse map, minus hashing);
        - ``data_cells[stripe_index * data_per_stripe + position]``: the
          ``(disk, row)`` cell of every client data unit of one pattern
          (the forward map, minus stripe materialisation).

        Deriving both from :meth:`_period_table` reuses its
        every-cell-covered-exactly-once validation and keeps the fast
        path equal to the reference by construction.
        """
        table = self._period_table()
        period = self.period
        grid: List[List[UnitInfo]] = [
            [None] * period for _ in range(self.n)  # type: ignore[list-item]
        ]
        data_cells: List[Tuple[int, int]] = [
            None  # type: ignore[list-item]
        ] * (self.stripes_per_period * self.data_per_stripe)
        per_stripe = self.data_per_stripe
        for (disk, row), info in table.items():
            grid[disk][row] = info
            if info.role is Role.DATA:
                data_cells[info.stripe * per_stripe + info.position] = (
                    disk,
                    row,
                )
        self._locate_grid = grid
        self._data_cells = data_cells
        return grid, data_cells

    def _table_insert(
        self,
        table: Dict[PhysicalAddress, UnitInfo],
        addr: PhysicalAddress,
        info: UnitInfo,
    ) -> None:
        if not 0 <= addr.disk < self.n or not 0 <= addr.offset < self.period:
            raise MappingError(
                f"{self.name}: cell {addr} outside the layout pattern"
            )
        if addr in table:
            raise MappingError(f"{self.name}: cell {addr} mapped twice")
        table[addr] = info

    # ------------------------------------------------------------------
    # Sparing hooks (overridden by layouts with distributed spare space).
    # ------------------------------------------------------------------

    def relocation_target(self, addr: PhysicalAddress) -> PhysicalAddress:
        """Spare cell that receives the reconstructed copy of ``addr``.

        Only meaningful for layouts with distributed sparing; the default
        raises.
        """
        raise MappingError(f"{self.name} has no spare space")

    # ------------------------------------------------------------------
    # Validation and reporting.
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check structural sanity of one full pattern.

        - every cell of the ``period x n`` grid is used exactly once,
        - no stripe places two units on the same disk (goal #1).
        """
        self._period_table()
        for s in range(self.stripes_per_period):
            disks = self.stripe_units_in_period(s).disks()
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
