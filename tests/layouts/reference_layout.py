"""The per-stripe layout model the stripe tables replaced, kept as a
reference.

``Layout.stripe_table`` is the only stripe representation of the
simulator; ``locate``, ``data_unit_cell(s)`` and every stripe consumer
read it, and each layout class declares only its period's stripes and
spare cells.  These are the implementations that model replaced,
restated as functions of a layout:

- :func:`stripe_units_in_period`, :func:`spare_addresses_in_period` and
  :func:`relocation_target`: each layout class's own forward map for
  one period stripe, its spare cells as :class:`PhysicalAddress` and
  its same-row relocation rule, as the classes defined them (a layout
  class none of them names — a test pattern — is read through its own
  declaration);
- :func:`stripe_units`: one global stripe as :class:`StripeUnits` of
  :class:`PhysicalAddress` cells, the period stripe shifted down by
  ``cycle * period`` rows (on a :class:`RelocatedView`, with the
  relocated disk's cells moved to their spare targets);
- :func:`period_table`: the dict-keyed ``PhysicalAddress -> UnitInfo``
  table of one pattern, with the every-cell-used-once validation;
- :func:`locate_reference` and :func:`data_unit_address_reference`: the
  inverse and forward maps read from those two.

``tests/layouts/test_flat_fast_path.py`` pins the tables against them
cell for cell, and the consumer references in
``tests/layouts/reference_consumers.py`` are written on them.  Never
edit a reference to make it match.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, NamedTuple

from repro.core.layout import PDDLLayout
from repro.core.wrapping import WrappedLayout
from repro.errors import MappingError
from repro.layouts.address import PhysicalAddress, Role, UnitInfo
from repro.layouts.base import Layout
from repro.layouts.datum import (
    DatumLayout,
    colex_count_containing,
    colex_unrank,
)
from repro.layouts.parity_decluster import ParityDeclusteringLayout
from repro.layouts.pseudorandom import PseudoRandomLayout
from repro.layouts.raid5 import LeftSymmetricRaid5Layout
from repro.layouts.relocated import RelocatedView
from repro.layouts.relpr import RelprLayout


class StripeUnits(NamedTuple):
    """All physical cells of one stripe, data units in client order.

    ``data[j]`` holds the j-th contiguous client data unit of the stripe
    (large-write optimization, goal #4), ``check`` the parity unit(s).
    """

    data: List[PhysicalAddress]
    check: List[PhysicalAddress]

    def all_units(self) -> List[PhysicalAddress]:
        return list(self.data) + list(self.check)

    def disks(self) -> List[int]:
        return [addr.disk for addr in self.all_units()]


# ----------------------------------------------------------------------
# Each layout class's per-stripe forward map.
# ----------------------------------------------------------------------


def _raid5_stripe(layout, stripe_index: int) -> StripeUnits:
    if not 0 <= stripe_index < layout.n:
        raise MappingError(f"stripe {stripe_index} outside pattern")
    parity_disk = (layout.n - 1 - stripe_index) % layout.n
    data = [
        PhysicalAddress((parity_disk + 1 + j) % layout.n, stripe_index)
        for j in range(layout.n - 1)
    ]
    return StripeUnits(
        data=data, check=[PhysicalAddress(parity_disk, stripe_index)]
    )


def _datum_stripe(layout, stripe_index: int) -> StripeUnits:
    if not 0 <= stripe_index < layout.stripes_per_period:
        raise MappingError(f"stripe {stripe_index} outside pattern")
    block = colex_unrank(stripe_index, layout.k)
    check_pos = layout._check_positions[stripe_index]
    data = []
    check = []
    for position, disk in enumerate(block):
        offset = colex_count_containing(disk, stripe_index, layout.k)
        addr = PhysicalAddress(disk, offset)
        if position == check_pos:
            check.append(addr)
        else:
            data.append(addr)
    return StripeUnits(data=data, check=check)


@lru_cache(maxsize=None)
def _parity_decluster_offsets(layout) -> Dict[tuple, int]:
    # Offset of each (copy, block, position) unit: within a copy, disk
    # d's units stack in block order.
    offsets = {}
    for copy in range(layout.k):
        seen = [0] * layout.n
        for j, block in enumerate(layout.design.blocks):
            for disk in block:
                offsets[(copy, j, disk)] = (
                    copy * layout._replication + seen[disk]
                )
                seen[disk] += 1
    return offsets


def _parity_decluster_stripe(layout, stripe_index: int) -> StripeUnits:
    if not 0 <= stripe_index < layout.stripes_per_period:
        raise MappingError(f"stripe {stripe_index} outside pattern")
    copy, j = divmod(stripe_index, layout.design.b)
    block = layout.design.blocks[j]
    check_pos = (j + copy) % layout.k
    offsets = _parity_decluster_offsets(layout)
    data = []
    check = []
    for position, disk in enumerate(block):
        addr = PhysicalAddress(disk, offsets[(copy, j, disk)])
        if position == check_pos:
            check.append(addr)
        else:
            data.append(addr)
    return StripeUnits(data=data, check=check)


def _relpr_stripe(layout, stripe_index: int) -> StripeUnits:
    if not 0 <= stripe_index < layout.stripes_per_period:
        raise MappingError(f"stripe {stripe_index} outside pattern")
    section, j = divmod(stripe_index, layout.n)
    z = layout.multipliers[section]
    base_row = section * layout.k
    data = []
    for i in range(layout.k - 1):
        unit = j * (layout.k - 1) + i
        row, column = divmod(unit, layout.n)
        data.append(PhysicalAddress(z * column % layout.n, base_row + row))
    parity_column = (j + 1) * (layout.k - 1) % layout.n
    check = [
        PhysicalAddress(
            z * parity_column % layout.n, base_row + layout.k - 1
        )
    ]
    return StripeUnits(data=data, check=check)


def _pseudorandom_stripe(layout, stripe_index: int) -> StripeUnits:
    if not 0 <= stripe_index < layout.stripes_per_period:
        raise MappingError(f"stripe {stripe_index} outside pattern")
    row, group = divmod(stripe_index, layout.g)
    perm = layout._row_permutation(row)
    start = layout.spares + group * layout.k
    columns = range(start, start + layout.k)
    data = [PhysicalAddress(perm[c], row) for c in list(columns)[:-1]]
    check = [PhysicalAddress(perm[start + layout.k - 1], row)]
    return StripeUnits(data=data, check=check)


def pddl_row_context(layout, row: int):
    """``PDDLLayout._row_context``: (permutation, develop shift t) for a
    pattern row."""
    q, t = divmod(row, layout.n)
    return layout.group.permutations[q], t


def _pddl_stripe(layout, stripe_index: int) -> StripeUnits:
    if not 0 <= stripe_index < layout.stripes_per_period:
        raise MappingError(f"stripe {stripe_index} outside pattern")
    row, group = divmod(stripe_index, layout.g)
    perm, t = pddl_row_context(layout, row)
    columns = list(perm.group_columns(group))
    split = layout.k - layout.checks
    data = [
        PhysicalAddress(perm.disk_of_column(c, t, layout.dev), row)
        for c in columns[:split]
    ]
    check = [
        PhysicalAddress(perm.disk_of_column(c, t, layout.dev), row)
        for c in columns[split:]
    ]
    return StripeUnits(data=data, check=check)


def _wrapped_stripe(layout, stripe_index: int) -> StripeUnits:
    band, inner_index = divmod(
        stripe_index, layout.inner.stripes_per_period
    )
    members = layout.outer_blocks[band]
    base = stripe_units_in_period(layout.inner, inner_index)
    shift = band * layout.inner.period
    return StripeUnits(
        data=[PhysicalAddress(members[d], o + shift) for d, o in base.data],
        check=[
            PhysicalAddress(members[d], o + shift) for d, o in base.check
        ],
    )


def _declared_stripe(layout, stripe_index: int) -> StripeUnits:
    data, check = layout._build_stripes()[stripe_index]
    return StripeUnits(
        data=[PhysicalAddress(*cell) for cell in data],
        check=[PhysicalAddress(*cell) for cell in check],
    )


_STRIPE_UNITS = {
    LeftSymmetricRaid5Layout: _raid5_stripe,
    DatumLayout: _datum_stripe,
    ParityDeclusteringLayout: _parity_decluster_stripe,
    RelprLayout: _relpr_stripe,
    PseudoRandomLayout: _pseudorandom_stripe,
    PDDLLayout: _pddl_stripe,
    WrappedLayout: _wrapped_stripe,
    Layout: _declared_stripe,
}


def _for_class(table, layout):
    for cls in type(layout).__mro__:
        if cls in table:
            return table[cls]
    raise TypeError(f"no reference for {type(layout).__name__}")


def stripe_units_in_period(layout, stripe_index: int) -> StripeUnits:
    """Physical cells of period stripe ``stripe_index``."""
    return _for_class(_STRIPE_UNITS, layout)(layout, stripe_index)


# ----------------------------------------------------------------------
# Each layout class's spare cells.
# ----------------------------------------------------------------------


def _pddl_spares(layout) -> List[PhysicalAddress]:
    out = []
    for row in range(layout.period):
        perm, t = pddl_row_context(layout, row)
        for column in range(layout.spares):
            out.append(
                PhysicalAddress(
                    perm.disk_of_column(column, t, layout.dev), row
                )
            )
    return out


def _pseudorandom_spares(layout) -> List[PhysicalAddress]:
    return [
        PhysicalAddress(layout._row_permutation(row)[column], row)
        for row in range(layout.rows)
        for column in range(layout.spares)
    ]


def _wrapped_spares(layout) -> List[PhysicalAddress]:
    out: List[PhysicalAddress] = []
    for band, members in enumerate(layout.outer_blocks):
        shift = band * layout.inner.period
        member_set = set(members)
        for d, o in spare_addresses_in_period(layout.inner):
            out.append(PhysicalAddress(members[d], o + shift))
        for row in range(layout.inner.period):
            for disk in range(layout.n):
                if disk not in member_set:
                    out.append(PhysicalAddress(disk, row + shift))
    return out


def _declared_spares(layout) -> List[PhysicalAddress]:
    return [PhysicalAddress(*cell) for cell in layout.spare_cells()]


_SPARES = {
    PseudoRandomLayout: _pseudorandom_spares,
    PDDLLayout: _pddl_spares,
    WrappedLayout: _wrapped_spares,
    Layout: _declared_spares,
}


def spare_addresses_in_period(layout) -> List[PhysicalAddress]:
    """Distributed-spare cells of one pattern (empty if no sparing)."""
    return _for_class(_SPARES, layout)(layout)


# ----------------------------------------------------------------------
# Each layout class's relocation rule.
# ----------------------------------------------------------------------


def _pddl_relocation(layout, addr: PhysicalAddress) -> PhysicalAddress:
    if layout.spares == 0:
        raise MappingError("this PDDL instance was built without spares")
    row = addr.offset % layout.period
    perm, t = pddl_row_context(layout, row)
    if layout.locate(addr.disk, addr.offset).role is Role.SPARE:
        raise MappingError(f"{addr} is spare space; nothing to relocate")
    spare_disk = perm.disk_of_column(0, t, layout.dev)
    return PhysicalAddress(spare_disk, addr.offset)


def _pseudorandom_relocation(layout, addr: PhysicalAddress) -> PhysicalAddress:
    if layout.spares == 0:
        raise MappingError("built without spare space")
    if layout.locate(addr.disk, addr.offset).role is Role.SPARE:
        raise MappingError(f"{addr} is spare space; nothing to relocate")
    row = addr.offset % layout.rows
    return PhysicalAddress(layout._row_permutation(row)[0], addr.offset)


def _wrapped_relocation(layout, addr: PhysicalAddress) -> PhysicalAddress:
    row = addr.offset % layout.period
    band, inner_row = divmod(row, layout.inner.period)
    members = layout.outer_blocks[band]
    if addr.disk not in members:
        raise MappingError(f"{addr} is filler spare space")
    inner_disk = members.index(addr.disk)
    cycle_base = addr.offset - row
    target = relocation_target(
        layout.inner, PhysicalAddress(inner_disk, inner_row)
    )
    return PhysicalAddress(
        members[target.disk],
        cycle_base + band * layout.inner.period + target.offset,
    )


def _view_relocation(layout, addr: PhysicalAddress) -> PhysicalAddress:
    raise MappingError(f"{layout.name} has no spare space left")


def _no_relocation(layout, addr: PhysicalAddress) -> PhysicalAddress:
    raise MappingError(f"{layout.name} has no spare space")


_RELOCATIONS = {
    PseudoRandomLayout: _pseudorandom_relocation,
    PDDLLayout: _pddl_relocation,
    WrappedLayout: _wrapped_relocation,
    RelocatedView: _view_relocation,
    Layout: _no_relocation,
}


def relocation_target(layout, addr: PhysicalAddress) -> PhysicalAddress:
    """Spare cell that receives the reconstructed copy of ``addr``."""
    return _for_class(_RELOCATIONS, layout)(layout, addr)


# ----------------------------------------------------------------------
# The per-stripe model read from those.
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def _period_stripe(layout, index: int) -> StripeUnits:
    return stripe_units_in_period(layout, index)


def stripe_units(layout, stripe_id: int) -> StripeUnits:
    """Physical cells of a global stripe (period-extended)."""
    if isinstance(layout, RelocatedView):
        units = stripe_units(layout.base, stripe_id)
        moved = layout.relocated_disk
        base = layout.base

        def target(addr):
            return relocation_target(base, addr)

        return StripeUnits(
            data=[target(a) if a.disk == moved else a for a in units.data],
            check=[target(a) if a.disk == moved else a for a in units.check],
        )
    if stripe_id < 0:
        raise MappingError(f"negative stripe id {stripe_id}")
    cycle, index = divmod(stripe_id, layout.stripes_per_period)
    base = _period_stripe(layout, index)
    if cycle == 0:
        return base
    shift = cycle * layout.period
    return StripeUnits(
        data=[PhysicalAddress(d, o + shift) for d, o in base.data],
        check=[PhysicalAddress(d, o + shift) for d, o in base.check],
    )


def _table_insert(
    layout,
    table: Dict[PhysicalAddress, UnitInfo],
    addr: PhysicalAddress,
    info: UnitInfo,
) -> None:
    if not 0 <= addr.disk < layout.n or not 0 <= addr.offset < layout.period:
        raise MappingError(
            f"{layout.name}: cell {addr} outside the layout pattern"
        )
    if addr in table:
        raise MappingError(f"{layout.name}: cell {addr} mapped twice")
    table[addr] = info


@lru_cache(maxsize=None)
def period_table(layout) -> Dict[PhysicalAddress, UnitInfo]:
    """What lives at every cell of one pattern, keyed by address."""
    table: Dict[PhysicalAddress, UnitInfo] = {}
    for s in range(layout.stripes_per_period):
        units = stripe_units_in_period(layout, s)
        for j, addr in enumerate(units.data):
            _table_insert(layout, table, addr, UnitInfo(Role.DATA, s, j))
        for j, addr in enumerate(units.check):
            _table_insert(
                layout,
                table,
                addr,
                UnitInfo(Role.CHECK, s, layout.data_per_stripe + j),
            )
    for addr in spare_addresses_in_period(layout):
        _table_insert(layout, table, addr, UnitInfo(Role.SPARE, -1, -1))
    expected = layout.period * layout.n
    if len(table) != expected:
        raise MappingError(
            f"{layout.name}: pattern covers {len(table)} cells,"
            f" expected {expected}"
        )
    return table


def locate_reference(layout, disk: int, offset: int) -> UnitInfo:
    """``layout.locate`` read from the dict-keyed period table."""
    if not 0 <= disk < layout.n:
        raise MappingError(f"disk {disk} outside 0..{layout.n - 1}")
    if offset < 0:
        raise MappingError(f"negative offset {offset}")
    cycle, row = divmod(offset, layout.period)
    info = period_table(layout)[PhysicalAddress(disk, row)]
    if info.role is Role.SPARE:
        return info
    return UnitInfo(
        role=info.role,
        stripe=info.stripe + cycle * layout.stripes_per_period,
        position=info.position,
    )


def data_unit_address_reference(layout, unit: int) -> PhysicalAddress:
    """``layout.data_unit_address``: materialise the whole stripe and
    index its data list."""
    stripe = layout.stripe_of_data_unit(unit)
    position = unit % layout.data_per_stripe
    return stripe_units(layout, stripe).data[position]
