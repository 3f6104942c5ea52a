"""Tests for the shared Layout machinery (via concrete layouts)."""

import pytest

from repro.errors import ConfigurationError, MappingError
from repro.layouts import make_layout
from repro.layouts.address import PhysicalAddress, Role
from repro.layouts.raid5 import LeftSymmetricRaid5Layout
from tests.layouts.reference_layout import stripe_units


@pytest.fixture(scope="module")
def raid5():
    return LeftSymmetricRaid5Layout(5)


class TestGlobalAddressing:
    def test_period_extension(self, raid5):
        base = raid5.stripe_units_in_period(0)
        extended = stripe_units(raid5, 0 + raid5.stripes_per_period)
        assert [a.disk for a in extended.data] == [a.disk for a in base.data]
        assert all(
            e.offset == b.offset + raid5.period
            for e, b in zip(extended.data, base.data)
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
        for s in range(raid5.stripes_per_period):
            units = raid5.stripe_units_in_period(s)
            for addr in units.check:
                assert raid5.locate(*addr).role is Role.CHECK


class TestConstructionErrors:
    def test_k_too_small(self):
        with pytest.raises(ConfigurationError):
            LeftSymmetricRaid5Layout(1)

    def test_relocation_without_sparing(self, raid5):
        with pytest.raises(MappingError):
            raid5.relocation_target(PhysicalAddress(0, 0))


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
