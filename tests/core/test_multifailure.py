"""Tests for multi-check stripes, multi-spare layouts, and multi-failure
reconstruction planning."""

import pytest

from repro.core.layout import PDDLLayout
from repro.core.multifailure import (
    degraded_read_cost,
    multi_rebuild_plan,
    multi_rebuild_read_tally,
    worst_case_tally_deviation,
)
from repro.core.permutation import BasePermutation
from repro.errors import ConfigurationError
from repro.layouts.address import PhysicalAddress, Role
from repro.layouts.properties import check_layout


@pytest.fixture(scope="module")
def pq_layout():
    """n = 10: two spares + two stripes of width 4 with 2 checks (P+Q).

    No solitary permutation can meet goal #3 with two spares (the
    divisibility (n-2)(k-1) mod (n-1) never works out for k < n), so the
    fixture uses a fixed scrambled permutation; these tests exercise the
    multi-failure machinery, not reconstruction balance.
    """
    perm = BasePermutation(
        (0, 5, 1, 8, 3, 9, 2, 7, 4, 6), k=4, spares=2, checks=2
    )
    return PDDLLayout(perm)


class TestMultiCheckPermutation:
    def test_bad_shape_rejected(self):
        # 11 - 2 spares = 9 is not a multiple of k = 4.
        with pytest.raises(ConfigurationError):
            BasePermutation(tuple(range(11)), k=4, spares=2, checks=2)

    def test_valid_multicheck(self):
        perm = BasePermutation(tuple(range(10)), k=4, spares=2, checks=2)
        assert perm.is_check_column(4) and perm.is_check_column(5)
        assert not perm.is_check_column(2)
        assert not perm.is_check_column(0)  # spare
        assert perm.checks == 2

    def test_checks_out_of_range(self):
        with pytest.raises(ConfigurationError):
            BasePermutation(tuple(range(10)), k=4, spares=2, checks=4)
        with pytest.raises(ConfigurationError):
            BasePermutation(tuple(range(10)), k=4, spares=2, checks=0)


class TestPQLayout:
    def test_structure(self, pq_layout):
        assert pq_layout.checks == 2
        assert pq_layout.spares == 2
        assert pq_layout.data_per_stripe == 2
        pq_layout.validate()

    def test_goal_profile(self, pq_layout):
        report = check_layout(pq_layout)
        met = report.goals_met()
        for goal in (1, 2, 4, 7):
            assert goal in met, goal

    def test_two_spare_cells_per_row(self, pq_layout):
        spares = pq_layout.spare_addresses_in_period()
        per_row = {}
        for addr in spares:
            per_row[addr.offset] = per_row.get(addr.offset, 0) + 1
        assert set(per_row.values()) == {2}

    def test_relocation_per_spare_column(self, pq_layout):
        # The i-th concurrent failure rebuilds into virtual spare column i
        # of the lost cell's row; one failure uses column 0, the column
        # relocation_target gives.
        for failed in ([0, 1], [1, 0], [2, 7], [4]):
            targets = set()
            for step in multi_rebuild_plan(pq_layout, failed):
                for cell, target in step.lost.items():
                    column = failed.index(cell.disk)
                    assert target == PhysicalAddress(
                        pq_layout.virtual_to_physical(column, cell.offset),
                        cell.offset,
                    )
                    assert pq_layout.locate(*target).role is Role.SPARE
                    if column == 0:
                        assert pq_layout.relocation_target(cell) == target
                    targets.add((column, target))
            assert {column for column, _ in targets} == set(
                range(len(failed))
            )
        # Two spare columns: a third failure has none to rebuild into.
        with pytest.raises(ConfigurationError):
            list(multi_rebuild_plan(pq_layout, [0, 1, 2]))

    def test_virtual_disk_interface_consistent(self, pq_layout):
        for unit in range(pq_layout.data_units_per_period):
            column, offset = pq_layout.virtual_disk_of(unit)
            disk = pq_layout.virtual_to_physical(column, offset)
            assert pq_layout.data_unit_address(unit) == PhysicalAddress(
                disk, offset
            )


class TestMultiRebuildPlan:
    def test_double_failure_covers_all_lost_units(self, pq_layout):
        steps = list(multi_rebuild_plan(pq_layout, [0, 1]))
        lost_cells = {cell for s in steps for cell in s.lost}
        expected = {
            (d, o)
            for d in (0, 1)
            for o in range(pq_layout.period)
            if pq_layout.locate(d, o).role is not Role.SPARE
        }
        assert {(c.disk, c.offset) for c in lost_cells} == expected

    def test_reads_avoid_failed_disks(self, pq_layout):
        for step in multi_rebuild_plan(pq_layout, [0, 3]):
            assert all(a.disk not in (0, 3) for a in step.reads)
            assert len(step.reads) >= pq_layout.k - pq_layout.checks

    def test_spare_targets_distinct(self, pq_layout):
        for step in multi_rebuild_plan(pq_layout, [2, 7]):
            targets = list(step.lost.values())
            assert len(set(targets)) == len(targets)
            for target in targets:
                assert pq_layout.locate(*target).role is Role.SPARE

    def test_too_many_failures_rejected(self, pq_layout):
        with pytest.raises(ConfigurationError):
            list(multi_rebuild_plan(pq_layout, [0, 1, 2]))

    def test_duplicate_failures_rejected(self, pq_layout):
        with pytest.raises(ConfigurationError):
            list(multi_rebuild_plan(pq_layout, [0, 0]))

    def test_single_check_layout_rejects_double_failure(self):
        from repro.core.bose import bose_base_permutation

        single = PDDLLayout(bose_base_permutation(2, 3))
        with pytest.raises(ConfigurationError):
            list(multi_rebuild_plan(single, [0, 1]))

    def test_single_failure_matches_rebuild_plan(self):
        from repro.core.bose import bose_base_permutation
        from repro.core.reconstruction import rebuild_read_tally

        layout = PDDLLayout(bose_base_permutation(2, 3))
        multi = multi_rebuild_read_tally(layout, [0])
        single = rebuild_read_tally(layout, 0)
        assert multi == single


class TestTallies:
    def test_double_failure_tally_positive_everywhere(self, pq_layout):
        tally = multi_rebuild_read_tally(pq_layout, [0, 5])
        assert all(v > 0 for v in tally.values())

    def test_worst_case_deviation_small(self, pq_layout):
        deviation, combo = worst_case_tally_deviation(pq_layout, failures=2)
        assert deviation <= 2 * pq_layout.k
        assert len(combo) == 2

    def test_degraded_read_cost(self, pq_layout):
        assert degraded_read_cost(pq_layout, []) == 1.0
        one = degraded_read_cost(pq_layout, [0])
        two = degraded_read_cost(pq_layout, [0, 1])
        assert 1.0 < one < two
