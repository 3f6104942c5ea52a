"""Tests for pure RAID operation planning."""

import pytest

from repro.array.raidops import ArrayMode, UnitOp, plan_access
from repro.errors import ConfigurationError, MappingError
from repro.layouts import make_layout
from repro.layouts.address import Role
from tests.layouts.reference_layout import stripe_units


@pytest.fixture(scope="module")
def raid5():
    return make_layout("raid5", 13, 13)


@pytest.fixture(scope="module")
def pddl():
    return make_layout("pddl", 13, 4)


class TestFaultFreeReads:
    def test_one_op_per_unit(self, raid5):
        plan = plan_access(raid5, 0, 12, is_write=False)
        assert plan.operation_count() == 12
        assert len(plan.phases) == 1
        assert all(not op.is_write for op in plan.all_ops())

    def test_reads_touch_only_data_disks(self, pddl):
        plan = plan_access(pddl, 0, 6, is_write=False)
        for op in plan.all_ops():
            assert pddl.locate(op.disk, op.offset).role is Role.DATA


class TestFaultFreeWrites:
    def test_small_write(self, raid5):
        # 1 unit of 12: read old data + parity, write data + parity.
        plan = plan_access(raid5, 0, 1, is_write=True)
        assert len(plan.phases) == 2
        assert len(plan.phases[0]) == 2
        assert len(plan.phases[1]) == 2

    def test_half_stripe_is_small_write(self, raid5):
        # §4.2: RAID-5 48KB (6 of 12 units) implements small writes.
        plan = plan_access(raid5, 0, 6, is_write=True)
        assert len(plan.phases[0]) == 7   # 6 old data + parity
        assert len(plan.phases[1]) == 7   # 6 data + parity

    def test_large_write_above_half(self, raid5):
        plan = plan_access(raid5, 0, 9, is_write=True)
        assert len(plan.phases[0]) == 3   # the 3 untouched units
        assert len(plan.phases[1]) == 10  # 9 data + parity

    def test_full_stripe_write_has_no_reads(self, raid5):
        plan = plan_access(raid5, 0, 12, is_write=True)
        assert len(plan.phases) == 1
        assert len(plan.phases[0]) == 13  # 12 data + parity
        assert all(op.is_write for op in plan.all_ops())

    def test_full_stripe_write_pddl(self, pddl):
        plan = plan_access(pddl, 0, 3, is_write=True)
        assert len(plan.phases) == 1
        assert plan.operation_count() == 4

    def test_multi_stripe_write_mixes_modes(self, pddl):
        # 4 units starting at 1: stripe 0 gets 2 of 3 (large write),
        # stripe 1 gets 2 of 3 (large write).
        plan = plan_access(pddl, 1, 4, is_write=True)
        assert len(plan.phases) == 2
        # each stripe: 1 untouched read; writes: 2 data + parity each.
        assert len(plan.phases[0]) == 2
        assert len(plan.phases[1]) == 6


class TestDegradedReads:
    def test_lost_unit_fans_out(self, pddl):
        # Find a data unit on disk 0 and read it degraded.
        unit = next(
            u
            for u in range(pddl.data_units_per_period)
            if pddl.data_unit_address(u).disk == 0
        )
        plan = plan_access(
            pddl, unit, 1, is_write=False,
            mode=ArrayMode.DEGRADED, failed_disk=0,
        )
        assert plan.operation_count() == pddl.k - 1
        assert all(op.disk != 0 for op in plan.all_ops())

    def test_surviving_unit_reads_normally(self, pddl):
        unit = next(
            u
            for u in range(pddl.data_units_per_period)
            if pddl.data_unit_address(u).disk != 0
        )
        plan = plan_access(
            pddl, unit, 1, is_write=False,
            mode=ArrayMode.DEGRADED, failed_disk=0,
        )
        assert plan.operation_count() == 1

    def test_dedupes_overlapping_reconstruction_reads(self, pddl):
        # Reading a whole stripe degraded: survivors appear once each.
        failed = stripe_units(pddl, 0).data[0].disk
        plan = plan_access(
            pddl, 0, 3, is_write=False,
            mode=ArrayMode.DEGRADED, failed_disk=failed,
        )
        ops = plan.all_ops()
        assert len(ops) == len(set(ops))
        assert plan.operation_count() == 3  # 2 surviving data + check


class TestDegradedWrites:
    def _stripe_with_failed_role(self, layout, failed, want_role):
        """First stripe whose relation to `failed` matches want_role."""
        for s in range(layout.stripes_per_period):
            units = stripe_units(layout, s)
            if want_role == "check":
                if units.check[0].disk == failed:
                    return s
            elif want_role == "data":
                if any(a.disk == failed for a in units.data):
                    return s
            elif want_role == "none":
                if all(a.disk != failed for a in units.all_units()):
                    return s
        raise AssertionError("no such stripe")

    def test_lost_parity_writes_data_only(self, pddl):
        s = self._stripe_with_failed_role(pddl, 0, "check")
        unit = pddl.data_units_of_stripe(s)[0]
        plan = plan_access(
            pddl, unit, 1, is_write=True,
            mode=ArrayMode.DEGRADED, failed_disk=0,
        )
        assert len(plan.phases) == 1
        assert plan.operation_count() == 1
        assert plan.phases[0][0].is_write

    def test_lost_written_data_forces_large_write(self, raid5):
        s = 0
        units = stripe_units(raid5, s)
        failed = units.data[2].disk
        # Write units 0..5 (includes position 2) -> forced large write.
        plan = plan_access(
            raid5, 0, 6, is_write=True,
            mode=ArrayMode.DEGRADED, failed_disk=failed,
        )
        reads, writes = plan.phases
        assert len(reads) == 6          # the 6 untouched units, all alive
        assert len(writes) == 6         # 5 surviving data + parity
        assert all(op.disk != failed for op in reads + writes)

    def test_lost_untouched_data_forces_small_write(self, raid5):
        units = stripe_units(raid5, 0)
        failed = units.data[11].disk
        plan = plan_access(
            raid5, 0, 6, is_write=True,
            mode=ArrayMode.DEGRADED, failed_disk=failed,
        )
        reads, writes = plan.phases
        assert len(reads) == 7          # 6 old data + parity
        assert len(writes) == 7
        assert all(op.disk != failed for op in reads + writes)

    def test_degraded_large_writes_do_less_work(self, raid5):
        # §4.2: "the array actually does less work in many cases when
        # performing large writes, because the failed disk cannot be
        # written" — compare a 9-unit write hitting the failed disk.
        units = stripe_units(raid5, 0)
        failed = units.data[0].disk
        clean = plan_access(raid5, 0, 9, is_write=True)
        degraded = plan_access(
            raid5, 0, 9, is_write=True,
            mode=ArrayMode.DEGRADED, failed_disk=failed,
        )
        assert degraded.operation_count() < clean.operation_count()


class TestPostReconstruction:
    def test_reads_redirect_to_spare(self, pddl):
        unit = next(
            u
            for u in range(pddl.data_units_per_period)
            if pddl.data_unit_address(u).disk == 0
        )
        plan = plan_access(
            pddl, unit, 1, is_write=False,
            mode=ArrayMode.POST_RECONSTRUCTION, failed_disk=0,
        )
        assert plan.operation_count() == 1
        op = plan.all_ops()[0]
        assert op.disk != 0
        assert pddl.locate(op.disk, op.offset).role is Role.SPARE

    def test_writes_redirect_to_spare(self, pddl):
        unit = next(
            u
            for u in range(pddl.data_units_per_period)
            if pddl.data_unit_address(u).disk == 0
        )
        plan = plan_access(
            pddl, unit, 1, is_write=True,
            mode=ArrayMode.POST_RECONSTRUCTION, failed_disk=0,
        )
        assert all(op.disk != 0 for op in plan.all_ops())

    def test_requires_sparing(self, raid5):
        with pytest.raises(MappingError):
            plan_access(
                raid5, 0, 1, is_write=False,
                mode=ArrayMode.POST_RECONSTRUCTION, failed_disk=0,
            )


class TestValidation:
    def test_bad_unit_count(self, raid5):
        with pytest.raises(ConfigurationError):
            plan_access(raid5, 0, 0, is_write=False)

    def test_negative_start(self, raid5):
        with pytest.raises(ConfigurationError):
            plan_access(raid5, -1, 1, is_write=False)

    def test_fault_free_rejects_failed_disk(self, raid5):
        with pytest.raises(ConfigurationError):
            plan_access(raid5, 0, 1, is_write=False, failed_disk=0)

    def test_degraded_requires_failed_disk(self, raid5):
        with pytest.raises(ConfigurationError):
            plan_access(raid5, 0, 1, is_write=False, mode=ArrayMode.DEGRADED)
