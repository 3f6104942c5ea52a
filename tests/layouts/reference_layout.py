"""The per-stripe layout model the stripe tables replaced, kept as a
reference.

``Layout.stripe_table`` is the only stripe representation of the
simulator; ``locate``, ``data_unit_cell(s)`` and every stripe consumer
read it.  These are the implementations it replaced, restated as
functions of a layout:

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
from typing import Dict

from repro.errors import MappingError
from repro.layouts.address import PhysicalAddress, Role, StripeUnits, UnitInfo
from repro.layouts.relocated import RelocatedView


@lru_cache(maxsize=None)
def _period_stripe(layout, index: int) -> StripeUnits:
    return layout.stripe_units_in_period(index)


def stripe_units(layout, stripe_id: int) -> StripeUnits:
    """Physical cells of a global stripe (period-extended)."""
    if isinstance(layout, RelocatedView):
        units = stripe_units(layout.base, stripe_id)
        moved = layout.relocated_disk
        target = layout.base.relocation_target
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
        units = layout.stripe_units_in_period(s)
        for j, addr in enumerate(units.data):
            _table_insert(layout, table, addr, UnitInfo(Role.DATA, s, j))
        for j, addr in enumerate(units.check):
            _table_insert(
                layout,
                table,
                addr,
                UnitInfo(Role.CHECK, s, layout.data_per_stripe + j),
            )
    for addr in layout.spare_addresses_in_period():
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
