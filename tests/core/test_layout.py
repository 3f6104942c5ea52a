"""Tests for PDDLLayout — including the paper's Figure 2 worked example."""

import pytest

from repro.core.bose import bose_base_permutation
from repro.core.layout import PDDLLayout, pddl_for
from repro.core.permutation import BasePermutation, PermutationGroup
from repro.core.reconstruction import rebuild_plan
from repro.core.tables import PAPER_N10_K3_PAIR, PAPER_N16_K5
from repro.errors import ConfigurationError, MappingError
from repro.layouts.address import PhysicalAddress, Role


@pytest.fixture(scope="module")
def seven():
    return PDDLLayout(bose_base_permutation(2, 3, omega=3))


class TestFigure2:
    """Reproduce the right-hand array of Figure 2 cell by cell."""

    # Figure 2 physical array rows (disk0..disk6), S=spare, letters=data,
    # P<letter>=check.  Stripe A is row 0 group 0, B row 0 group 1, C row 1
    # group 0, etc.
    def test_row0(self, seven):
        # S  A0  A1  B0  PA  PB  B1
        stripes = seven.stripe_table().stripes
        a_data, a_check = stripes[0]   # stripe A
        b_data, b_check = stripes[1]   # stripe B
        assert a_data == ((1, 0), (2, 0))
        assert a_check == ((4, 0),)
        assert b_data == ((3, 0), (6, 0))
        assert b_check == ((5, 0),)
        assert seven.spare_cells()[0] == (0, 0)

    def test_row1(self, seven):
        # D1 lands on disk 0, PD on disk 6 (paper §2 text).
        d_data, d_check = seven.stripe_table().stripes[3]   # stripe D
        assert d_data[1] == (0, 1)
        assert d_check == ((6, 1),)

    def test_spare_diagonal(self, seven):
        # Spare space runs down the main diagonal: disk t in row t.
        assert seven.spare_cells() == [(t, t) for t in range(7)]

    def test_every_cell_used_once(self, seven):
        seven.validate()

    def test_role_fractions(self, seven):
        # §2: 1/7 spare, 2/7 parity, 4/7 data.
        assert seven.spare_overhead == pytest.approx(1 / 7)
        assert seven.parity_overhead == pytest.approx(2 / 7)


class TestMappingFunctions:
    def test_virtual_to_physical_matches_paper_code(self, seven):
        # int virtual2physical(d, o) { return (perm[d] + o) % 7 }
        perm = (0, 1, 2, 4, 3, 6, 5)
        for disk in range(7):
            for offset in range(21):
                assert seven.virtual_to_physical(disk, offset) == (
                    (perm[disk] + offset) % 7
                )

    def test_virtual_disk_of(self, seven):
        # g=2, k=3: data columns per row = 4; virtual columns 1,2,4,5.
        assert seven.virtual_disk_of(0) == PhysicalAddress(1, 0)
        assert seven.virtual_disk_of(1) == PhysicalAddress(2, 0)
        assert seven.virtual_disk_of(2) == PhysicalAddress(4, 0)
        assert seven.virtual_disk_of(3) == PhysicalAddress(5, 0)
        assert seven.virtual_disk_of(4) == PhysicalAddress(1, 1)

    def test_virtual_interface_consistent_with_layout(self, seven):
        # data_unit_address must equal virtual_disk_of piped through
        # virtual_to_physical.
        for unit in range(4 * 7 * 3):
            column, offset = seven.virtual_disk_of(unit)
            disk = seven.virtual_to_physical(column, offset)
            assert seven.data_unit_address(unit) == PhysicalAddress(
                disk, offset
            )

    def test_bad_virtual_addresses(self, seven):
        with pytest.raises(MappingError):
            seven.virtual_to_physical(7, 0)
        with pytest.raises(MappingError):
            seven.virtual_to_physical(0, -1)
        with pytest.raises(MappingError):
            seven.virtual_disk_of(-1)


class TestRelocation:
    def test_targets_same_row_spare(self, seven):
        for disk in range(7):
            homes = {
                lost.row: lost.home
                for lost in seven.failure_table(disk)
                if lost is not None
            }
            for offset in range(7):
                if seven.locate(disk, offset).role is Role.SPARE:
                    # A spare cell holds nothing to rebuild.
                    assert offset not in homes
                else:
                    assert homes[offset] == (offset, offset)
                    assert seven.locate(*homes[offset]).role is Role.SPARE

    def test_extends_across_periods(self, seven):
        (step,) = [
            step
            for step in rebuild_plan(seven, 1, rows=21)
            if step.lost == PhysicalAddress(1, 14)
        ]
        assert step.write == PhysicalAddress(0, 14)


class TestMultiPermutation:
    def test_pair_layout(self):
        group = PermutationGroup(
            [BasePermutation(v, k=3) for v in PAPER_N10_K3_PAIR]
        )
        layout = PDDLLayout(group)
        layout.validate()
        assert layout.period == 20  # paper: "a 20 row layout pattern"
        assert layout.stripes_per_period == 20 * 3

    def test_rows_alternate_permutations(self):
        group = PermutationGroup(
            [BasePermutation(v, k=3) for v in PAPER_N10_K3_PAIR]
        )
        layout = PDDLLayout(group)
        # Row 0 uses perm A (spare at disk 0), row 10 perm B (spare disk 0).
        spares = layout.spare_cells()
        assert spares[0][0] == PAPER_N10_K3_PAIR[0][0]
        assert spares[10][0] == PAPER_N10_K3_PAIR[1][0]


class TestXorLayout:
    def test_gf16_layout_validates(self):
        layout = PDDLLayout(BasePermutation(PAPER_N16_K5, k=5))
        # development_for(16) picks XOR automatically.
        layout.validate()
        assert layout.period == 16
        from repro.core.development import XorDevelopment

        assert isinstance(layout.dev, XorDevelopment)


class TestPddlFor:
    def test_prime(self):
        layout = pddl_for(3, 4)
        assert layout.n == 13
        layout.validate()

    def test_published(self):
        layout = pddl_for(3, 3)  # n = 10, uses the paper pair
        assert layout.group.p == 2
        layout.validate()

    def test_search_fallback(self):
        layout = pddl_for(4, 5)  # n = 21, composite, not published
        layout.validate()
        from repro.core.reconstruction import reconstruction_deviation

        assert reconstruction_deviation(layout) == 0

    def test_development_mismatch_rejected(self):
        from repro.core.development import ModularDevelopment

        perm = BasePermutation(PAPER_N16_K5, k=5)
        with pytest.raises(ConfigurationError):
            PDDLLayout(perm, ModularDevelopment(13))
