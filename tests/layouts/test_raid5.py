"""Tests for left-symmetric RAID-5."""

import pytest

from repro.errors import ConfigurationError
from repro.layouts.properties import check_layout
from repro.layouts.raid5 import LeftSymmetricRaid5Layout


class TestLeftSymmetric:
    def test_parity_rotates_right_to_left(self):
        lay = LeftSymmetricRaid5Layout(5)
        parity_disks = [
            check[0][0] for _, check in lay.stripe_table().stripes
        ]
        assert parity_disks == [4, 3, 2, 1, 0]

    def test_consecutive_data_on_consecutive_disks(self):
        lay = LeftSymmetricRaid5Layout(5)
        disks = [lay.data_unit_address(u).disk for u in range(20)]
        for a, b in zip(disks, disks[1:]):
            assert b == (a + 1) % 5

    def test_k_defaults_to_n(self):
        lay = LeftSymmetricRaid5Layout(13)
        assert lay.k == 13
        assert lay.data_per_stripe == 12

    def test_explicit_k_must_match(self):
        with pytest.raises(ConfigurationError):
            LeftSymmetricRaid5Layout(13, k=4)

    def test_goals(self):
        report = check_layout(LeftSymmetricRaid5Layout(13))
        assert report.goals_met() == [1, 2, 3, 4, 5, 6]
        assert report.distributed_sparing is None

    def test_maximal_parallelism_every_offset(self):
        lay = LeftSymmetricRaid5Layout(7)
        for start in range(lay.data_units_per_period):
            disks = {lay.data_unit_address(start + i).disk for i in range(7)}
            assert len(disks) == 7
