"""Registry-wide property test: the stripe tables == the per-stripe
reference.

``Layout.locate`` and ``Layout.data_unit_address`` index flat
per-period tables derived from ``Layout.stripe_table`` (see the module
docstring of ``src/repro/layouts/base.py``); the original dict-keyed
implementations survive in ``tests/layouts/reference_layout.py``.  This
test pins the two paths cell-for-cell equal for *every* registered
layout, across multiple periods, including the error cases — so any new
layout added to the registry is automatically held to the same contract.

The stripe tables are held to the same standard: the one-period stripe
table, shifted by ``c * period`` rows, must equal the reference
``stripe_units(s + c * stripes_per_period)``, and each failed disk's
table must name the lost cell and its spare exactly as the reference
``stripe_units`` of the layout and of its relocated view do (the latter
moves the lost cell with each layout class's own relocation rule,
restated in the reference module), in every cycle — for every layout
and for the relocated view of every sparing one.
"""

import pytest

from repro.errors import MappingError
from repro.layouts.address import PhysicalAddress, Role
from repro.layouts.base import Layout
from repro.layouts.registry import available_layouts, make_layout
from repro.layouts.relocated import RelocatedView
from tests.layouts.reference_layout import (
    data_unit_address_reference,
    locate_reference,
    period_table,
    stripe_units,
)

#: Canonical (n, k) per layout; the paper's 13-disk array, stripe width
#: 4 for the declustered schemes (PDDL needs n = g*k + 1) and the whole
#: array for RAID-5.
_CONFIGS = {"raid5": (13, 13)}
_DEFAULT_CONFIG = (13, 4)

#: How far past the first period to check (in periods).
_PERIODS = 2.5


#: Cycles the planner-table checks shift through.
_CYCLES = range(3)


def _make(name):
    n, k = _CONFIGS.get(name, _DEFAULT_CONFIG)
    return make_layout(name, n, k)


_SPARING = [name for name in available_layouts() if _make(name).has_sparing]


@pytest.fixture(params=available_layouts(), scope="module")
def layout(request):
    return _make(request.param)


@pytest.fixture(params=_SPARING, scope="module")
def view(request):
    return RelocatedView(_make(request.param), 2)


def _shifted(cells, shift):
    return [PhysicalAddress(d, o + shift) for d, o in cells]


def _assert_stripe_table_shifts(layout):
    period, per_period, _, stripes = layout.stripe_table()
    assert len(stripes) == per_period
    for c in _CYCLES:
        for s, (data, check) in enumerate(stripes):
            units = stripe_units(layout, s + c * per_period)
            assert _shifted(data, c * period) == units.data, (c, s)
            assert _shifted(check, c * period) == units.check, (c, s)


def test_stripe_table_shifts_to_stripe_units(layout):
    _assert_stripe_table_shifts(layout)


def test_relocated_stripe_table_shifts_to_stripe_units(view):
    _assert_stripe_table_shifts(view)


def test_failure_tables_match_stripe_units(layout):
    period, per_period, per_stripe, _ = layout.stripe_table()
    for disk in range(layout.n):
        lost_cells = layout.failure_table(disk)
        moved = RelocatedView(layout, disk) if layout.has_sparing else None
        for c in _CYCLES:
            for s, lost in enumerate(lost_cells):
                members = stripe_units(layout, s + c * per_period).all_units()
                on_disk = [
                    (i, a) for i, a in enumerate(members) if a.disk == disk
                ]
                if lost is None:
                    assert on_disk == [], (disk, c, s)
                    continue
                ((position, addr),) = on_disk
                assert (lost.position, lost.row + c * period) == (
                    position,
                    addr.offset,
                )
                if moved is not None:
                    members = stripe_units(
                        moved, s + c * per_period
                    ).all_units()
                shift = c * period
                assert _shifted(lost.data, shift) == members[:per_stripe]
                assert _shifted(lost.check, shift) == members[per_stripe:]


def test_data_unit_address_matches_reference(layout):
    units = int(layout.data_units_per_period * _PERIODS)
    for unit in range(units):
        assert layout.data_unit_address(unit) == (
            data_unit_address_reference(layout, unit)
        ), f"{layout.name}: data unit {unit} diverged"


def test_locate_matches_reference(layout):
    offsets = int(layout.period * _PERIODS)
    for disk in range(layout.n):
        for offset in range(offsets):
            assert layout.locate(disk, offset) == (
                locate_reference(layout, disk, offset)
            ), f"{layout.name}: cell ({disk}, {offset}) diverged"


def test_locate_roundtrips_data_units(layout):
    """Forward map and inverse map agree through the fast path."""
    for unit in range(layout.data_units_per_period * 2):
        addr = layout.data_unit_address(unit)
        info = layout.locate(*addr)
        assert info.role is Role.DATA
        assert info.stripe == layout.stripe_of_data_unit(unit)
        assert info.position == unit % layout.data_per_stripe


def test_error_cases_match_reference(layout):
    with pytest.raises(MappingError):
        layout.data_unit_address(-1)
    with pytest.raises(MappingError):
        data_unit_address_reference(layout, -1)
    for disk, offset in ((-1, 0), (layout.n, 0), (0, -1)):
        with pytest.raises(MappingError):
            layout.locate(disk, offset)
        with pytest.raises(MappingError):
            locate_reference(layout, disk, offset)


def test_data_unit_cell_is_address_core(layout):
    """The tuple-returning hot-path variant equals the address path."""
    for unit in range(layout.data_units_per_period + 3):
        addr = layout.data_unit_address(unit)
        assert layout.data_unit_cell(unit) == (addr.disk, addr.offset)


def test_relocated_data_unit_cells_match_the_mapping(view):
    """The view's cells are the base cells with the relocated disk's
    units moved to their spare targets (fault-free direct reads use
    them after a relocated repair cycle)."""
    base = view.base
    units = int(view.data_units_per_period * _PERIODS)
    cells = view.data_unit_cells(0, units)
    for unit, cell in enumerate(cells):
        addr = data_unit_address_reference(view, unit)
        assert addr.disk != view.relocated_disk
        if base.data_unit_address(unit).disk != view.relocated_disk:
            assert addr == base.data_unit_address(unit)
        assert cell == (addr.disk, addr.offset) == view.data_unit_cell(unit)
    assert view.data_unit_cells(5, 9) == cells[5:14]
    with pytest.raises(MappingError):
        view.data_unit_cells(-1, 1)


class _Pattern(Layout):
    """A two-disk, two-row pattern of one mirrored stripe, with the
    given stripe cells and spare cells."""

    name = "pattern"

    def __init__(self, cells, spares=()):
        super().__init__(n=2, k=2)
        self.cells = tuple(cells)
        self.spares = list(spares)

    period = 2
    stripes_per_period = 1

    def _build_stripes(self):
        return [(self.cells[:1], self.cells[1:])]

    def spare_cells(self):
        return list(self.spares)


@pytest.mark.parametrize(
    "cells, spares",
    [
        (((0, 0), (1, 0)), ((0, 1), (1, 1))),  # a valid pattern
        (((0, 0), (1, 2)), ((0, 1), (1, 1))),  # a row outside the pattern
        (((0, 0), (2, 0)), ((0, 1), (1, 1))),  # a disk outside the array
        (((0, 0), (1, 0)), ((1, 0), (1, 1))),  # a cell mapped twice
        (((0, 0), (1, 0)), ((0, 1),)),  # a cell left uncovered
    ],
)
def test_broken_patterns_raise_the_reference_errors(cells, spares):
    """The table build checks coverage with the period table's
    messages."""
    try:
        period_table(_Pattern(cells, spares))
    except MappingError as exc:
        with pytest.raises(MappingError) as raised:
            _Pattern(cells, spares).validate()
        assert str(raised.value) == str(exc)
    else:
        _Pattern(cells, spares).validate()
