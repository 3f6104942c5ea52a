"""Tests for the PDDL-over-DATUM wrapping extension."""

import pytest

from repro.core.bose import bose_base_permutation
from repro.core.layout import PDDLLayout
from repro.core.permutation import BasePermutation
from repro.core.reconstruction import rebuild_read_tally
from repro.core.wrapping import WrappedLayout, wrapped_layout
from repro.errors import ConfigurationError
from repro.layouts.address import Role
from repro.layouts.properties import check_goal1, check_goal2, check_goal4


@pytest.fixture(scope="module")
def nine_over_seven():
    """Inner 7-disk PDDL wrapped over 9 physical disks."""
    inner = PDDLLayout(bose_base_permutation(2, 3, omega=3))
    return WrappedLayout(9, inner)


class TestStructure:
    def test_dimensions(self, nine_over_seven):
        lay = nine_over_seven
        assert lay.n == 9
        assert len(lay.outer_blocks) == 36  # C(9, 7)
        assert lay.period == 36 * 7
        lay.validate()

    def test_goal1_and_parity(self, nine_over_seven):
        assert check_goal1(nine_over_seven).satisfied
        assert check_goal2(nine_over_seven).satisfied
        assert check_goal4(nine_over_seven).satisfied

    def test_sparing_uniform(self, nine_over_seven):
        counts = [0] * 9
        for disk, _ in nine_over_seven.spare_cells():
            counts[disk] += 1
        assert len(set(counts)) == 1

    def test_inner_must_be_smaller(self):
        inner = PDDLLayout(bose_base_permutation(2, 3))
        with pytest.raises(ConfigurationError):
            WrappedLayout(7, inner)


class TestRelocation:
    def test_member_relocation(self, nine_over_seven):
        lay = nine_over_seven
        # Disk 1 holds a data cell in row 0 of band 0 (members 0..6).
        assert lay.locate(1, 0).role is not Role.SPARE
        (lost,) = [
            lost for lost in lay.failure_table(1)
            if lost is not None and lost.row == 0
        ]
        # Rebuilt into the inner spare column's cell of the row, on a
        # member disk, not into a filler cell.
        assert lay.locate(*lost.home).role is Role.SPARE
        assert lost.home == (lay.outer_blocks[0][0], 0)

    def test_filler_relocation_rejected(self, nine_over_seven):
        # Disks 7, 8 are non-members of band 0 -> filler spare cells,
        # which hold nothing to rebuild.
        assert _lost_rows(nine_over_seven, 8).isdisjoint(
            range(nine_over_seven.inner.period)
        )


def _lost_rows(layout, disk):
    """Rows of one period where ``disk`` loses a stripe unit."""
    return {
        lost.row for lost in layout.failure_table(disk) if lost is not None
    }


class TestSparelessInner:
    def test_lost_units_go_to_the_first_filler_cell_of_their_row(self):
        # An inner PDDL without spares leaves the filler cells as the
        # only spare space: each lost unit is rebuilt into its row's
        # first filler cell, on a disk outside the band.
        lay = WrappedLayout(
            9, PDDLLayout(BasePermutation(tuple(range(7)), k=7, spares=0))
        )
        assert lay.has_sparing
        for disk in range(9):
            for lost in lay.failure_table(disk):
                if lost is None:
                    continue
                band = lost.row // lay.inner.period
                members = lay.outer_blocks[band]
                filler = min(set(range(9)) - set(members))
                assert lost.home == (filler, lost.row)
                assert lay.locate(*lost.home).role is Role.SPARE


class TestReconstruction:
    def test_load_spreads_beyond_inner_width(self, nine_over_seven):
        tally = rebuild_read_tally(nine_over_seven, 0)
        assert all(count > 0 for count in tally.values())
        deviation = max(tally.values()) - min(tally.values())
        # The outer CBD balances near-perfectly.
        assert deviation <= nine_over_seven.inner.k


class TestFactory:
    def test_paper_shape_30_disks(self):
        # §5: 30 disks, stripe width 7 -> inner PDDL with g=4, k=7, n=29.
        lay = wrapped_layout(30, 4, 7)
        assert lay.n == 30
        assert lay.inner.n == 29
        # C(30, 29) = 30 outer blocks: the complete design fits.
        assert len(lay.outer_blocks) == 30
        lay.validate()
        assert check_goal1(lay).satisfied
        assert check_goal2(lay).satisfied

    def test_truncated_outer_design(self):
        inner = PDDLLayout(bose_base_permutation(2, 3))
        lay = WrappedLayout(11, inner, max_outer_blocks=11)
        assert len(lay.outer_blocks) == 11
        lay.validate()

    def test_bad_max_blocks(self):
        inner = PDDLLayout(bose_base_permutation(2, 3))
        with pytest.raises(ConfigurationError):
            WrappedLayout(11, inner, max_outer_blocks=0)
