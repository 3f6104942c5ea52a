"""RelocatedView: a completed spare relocation folded into the mapping."""

import pytest

from repro.core.reconstruction import rebuild_plan
from repro.errors import ConfigurationError, MappingError
from repro.layouts import make_layout
from repro.layouts.address import PhysicalAddress, Role
from repro.layouts.relocated import RelocatedView
from tests.layouts.reference_layout import stripe_units


@pytest.fixture(scope="module")
def base():
    return make_layout("pddl", 13, 4)


@pytest.fixture(scope="module")
def view(base):
    return RelocatedView(base, 0)


class TestConstruction:
    def test_requires_sparing(self):
        with pytest.raises(ConfigurationError):
            RelocatedView(make_layout("raid5", 13, 4), 0)

    def test_requires_disk_in_range(self, base):
        with pytest.raises(ConfigurationError):
            RelocatedView(base, 13)
        with pytest.raises(ConfigurationError):
            RelocatedView(base, -1)

    def test_geometry_is_delegated(self, base, view):
        assert view.n == base.n
        assert view.k == base.k
        assert view.period == base.period
        assert view.stripes_per_period == base.stripes_per_period
        assert view.data_units_per_period == base.data_units_per_period

    def test_sparing_is_spent(self, view):
        assert view.has_sparing is False
        # A second failure is rebuilt in place, on a replacement spindle.
        for lost in view.failure_table(1):
            if lost is not None:
                assert lost.home == (1, lost.row)


class TestForwardMapping:
    def test_every_data_unit_lives_off_the_relocated_disk(self, base, view):
        for unit in range(base.data_units_per_period):
            addr = view.data_unit_address(unit)
            assert addr.disk != 0, unit
            base_addr = base.data_unit_address(unit)
            if base_addr.disk == 0:
                # Relocated unit: its new home is the first spare cell of
                # its row.
                row = base_addr.offset % base.period
                spare = base.spares_by_row()[row][0]
                assert addr == (spare, base_addr.offset)
            else:
                assert addr == base_addr

    def test_stripe_members_avoid_the_relocated_disk(self, base, view):
        for stripe in range(base.stripes_per_period):
            members = stripe_units(view, stripe).all_units()
            assert all(a.disk != 0 for a in members), stripe
            # Same multiset of units, just redirected.
            assert len(members) == len(
                stripe_units(base, stripe).all_units()
            )


class TestInverseMapping:
    def test_relocated_disk_is_unaddressable(self, view):
        with pytest.raises(MappingError):
            view.locate(0, 0)

    def test_round_trips_through_data_units(self, base, view):
        for unit in range(base.data_units_per_period):
            addr = view.data_unit_address(unit)
            info = view.locate(addr.disk, addr.offset)
            assert info.role is Role.DATA
            assert (
                view.data_units_of_stripe(info.stripe)[info.position]
                == unit
            ), unit

    def test_spare_cells_resolve_to_relocated_units(self, base, view):
        for disk, row in base.spare_cells():
            if disk == 0:
                continue
            info = view.locate(disk, row)
            # The cell now holds whatever disk 0 relocated into it.
            assert info.role is not Role.SPARE
            src = base.locate(0, row % base.period)
            assert info.role is src.role

    def test_later_cycles_shift_with_the_period(self, base, view):
        period = base.period
        for disk in range(1, view.n):
            a = view.locate(disk, 3)
            b = view.locate(disk, 3 + period)
            assert a.role is b.role
            assert a.stripe + view.stripes_per_period == b.stripe


class TestRebuildPlanning:
    def test_second_failure_plan_avoids_both_dead_disks(self, base, view):
        # A replacement-spindle rebuild of a second casualty planned
        # against the view: reads come from live spindles only.
        for second in (1, 6, 12):
            steps = list(rebuild_plan(view, second, rows=base.period))
            assert steps
            for step in steps:
                assert step.write is None  # no spare space left
                for addr in step.reads:
                    assert addr.disk != 0, step
                    assert addr.disk != second, step

    def test_every_row_of_the_second_disk_is_planned(self, base, view):
        # With the spare diagonal consumed by real data, no row of the
        # second disk is skippable as "spare" unless it is still empty.
        second = 4
        planned = {
            s.lost.offset for s in rebuild_plan(view, second, rows=13)
        }
        empty = {
            offset
            for offset in range(13)
            if (second, offset) not in view._spare_source
            and base.locate(second, offset).role is Role.SPARE
        }
        assert planned == set(range(13)) - empty
