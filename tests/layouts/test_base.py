"""Tests for the shared Layout machinery (via concrete layouts)."""

import pytest

from repro.errors import ConfigurationError, MappingError
from repro.layouts import make_layout
from repro.layouts.address import Role
from repro.layouts.base import Layout
from repro.layouts.raid5 import LeftSymmetricRaid5Layout
from tests.layouts.reference_layout import stripe_units


@pytest.fixture(scope="module")
def raid5():
    return LeftSymmetricRaid5Layout(5)


class TestGlobalAddressing:
    def test_period_extension(self, raid5):
        data, _ = raid5.stripe_table().stripes[0]
        extended = stripe_units(raid5, 0 + raid5.stripes_per_period)
        assert [a.disk for a in extended.data] == [disk for disk, _ in data]
        assert all(
            e.offset == row + raid5.period
            for e, (_, row) in zip(extended.data, data)
        )

    def test_negative_stripe_rejected(self, raid5):
        with pytest.raises(MappingError):
            stripe_units(raid5, -1)

    def test_data_unit_roundtrip(self, raid5):
        for unit in range(raid5.data_units_per_period * 3):
            addr = raid5.data_unit_address(unit)
            info = raid5.locate(*addr)
            assert info.role is Role.DATA
            assert info.stripe == raid5.stripe_of_data_unit(unit)
            assert info.position == unit % raid5.data_per_stripe

    def test_negative_unit_rejected(self, raid5):
        with pytest.raises(MappingError):
            raid5.data_unit_address(-1)

    def test_data_units_of_stripe_inverse(self, raid5):
        for s in range(raid5.stripes_per_period):
            for unit in raid5.data_units_of_stripe(s):
                assert raid5.stripe_of_data_unit(unit) == s


class TestLocate:
    def test_every_cell_resolves(self, raid5):
        for disk in range(raid5.n):
            for offset in range(raid5.period * 2):
                info = raid5.locate(disk, offset)
                assert info.role in (Role.DATA, Role.CHECK)

    def test_bad_cell_rejected(self, raid5):
        with pytest.raises(MappingError):
            raid5.locate(5, 0)
        with pytest.raises(MappingError):
            raid5.locate(0, -1)

    def test_locate_agrees_with_forward_map(self, raid5):
        for _, check in raid5.stripe_table().stripes:
            for cell in check:
                assert raid5.locate(*cell).role is Role.CHECK


class TestConstructionErrors:
    def test_k_too_small(self):
        with pytest.raises(ConfigurationError):
            LeftSymmetricRaid5Layout(1)

    def test_relocation_without_sparing(self, raid5):
        # No spare cells: a lost unit is rebuilt in place, on the
        # replacement spindle.
        assert raid5.spare_cells() == []
        assert not raid5.has_sparing
        for lost in raid5.failure_table(0):
            assert lost.home == (0, lost.row)


class TestOverheads:
    def test_raid5_parity_fraction(self):
        # Paper §4: RAID-5 uses 7.7% of 13 disks for parity.
        lay = make_layout("raid5", 13, 13)
        assert lay.parity_overhead == pytest.approx(1 / 13)
        assert lay.spare_overhead == 0

    def test_declustered_parity_fraction(self):
        # PRIME/DATUM/Parity Declustering: 25% with k = 4.
        for name in ("prime", "datum", "parity-declustering"):
            lay = make_layout(name, 13, 4)
            assert lay.parity_overhead == pytest.approx(0.25), name

    def test_pddl_overheads(self):
        # PDDL: 23.1% parity + 7.7% spare.
        lay = make_layout("pddl", 13, 4)
        assert lay.parity_overhead == pytest.approx(3 / 13)
        assert lay.spare_overhead == pytest.approx(1 / 13)


class _FourDisks(Layout):
    """Four disks, two rows, mirrored stripes and the given spare cells."""

    name = "four-disks"
    period = 2

    def __init__(self, stripes, spares):
        super().__init__(n=4, k=2)
        self.stripes = stripes
        self.spares = spares

    @property
    def stripes_per_period(self):
        return len(self.stripes)

    def _build_stripes(self):
        return [((a,), (b,)) for a, b in self.stripes]

    def spare_cells(self):
        return list(self.spares)


def _one_stripe_per_row():
    return _FourDisks(
        [((0, 0), (1, 0)), ((0, 1), (1, 1))],
        [(3, 0), (2, 0), (3, 1), (2, 1)],
    )


class TestRelocationRule:
    def test_spares_by_row_keeps_the_listed_order(self):
        lay = _one_stripe_per_row()
        lay.validate()
        assert lay.spares_by_row() == [[3, 2], [3, 2]]

    def test_lost_unit_goes_to_the_first_spare_of_its_row(self):
        lost = _one_stripe_per_row().failure_table(1)[1]
        assert (lost.row, lost.position, lost.home) == (1, 1, (3, 1))
        assert lost.data == ((0, 1),)
        assert lost.check == ((3, 1),)

    def test_sparing_row_without_a_spare_cell_raises(self):
        # Row 0 holds two stripes and no spare cell.
        lay = _FourDisks(
            [((0, 0), (1, 0)), ((2, 0), (3, 0)), ((0, 1), (1, 1))],
            [(3, 1), (2, 1)],
        )
        lay.validate()
        with pytest.raises(MappingError, match="no spare cell in its row"):
            lay.failure_table(0)

    def test_every_pddl_spare_column_in_order(self):
        # Two spare columns: row r lists column 0's disk, then column 1's.
        from repro.core.layout import PDDLLayout
        from repro.core.permutation import BasePermutation

        lay = PDDLLayout(
            BasePermutation(
                (0, 5, 1, 8, 3, 9, 2, 7, 4, 6), k=4, spares=2, checks=2
            )
        )
        for row, disks in enumerate(lay.spares_by_row()):
            assert disks == [
                lay.virtual_to_physical(column, row) for column in (0, 1)
            ]
