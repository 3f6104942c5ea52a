"""Tests for the Pseudo-Random layout."""

import pytest

from repro.errors import ConfigurationError
from repro.layouts.address import Role
from repro.layouts.pseudorandom import PseudoRandomLayout


class TestStructure:
    def test_validates(self):
        PseudoRandomLayout(13, 4).validate()

    def test_deterministic_for_seed(self):
        a = PseudoRandomLayout(13, 4)
        b = PseudoRandomLayout(13, 4)
        assert a.stripe_table() == b.stripe_table()
        assert a.spare_cells() == b.spare_cells()

    def test_rows_differ_from_each_other(self):
        lay = PseudoRandomLayout(13, 4)
        stripes = lay.stripe_table().stripes
        rows = {
            tuple(disk for disk, _ in sum(stripes[r * lay.g], ()))
            for r in range(8)
        }
        assert len(rows) > 1

    def test_bad_shapes(self):
        with pytest.raises(ConfigurationError):
            PseudoRandomLayout(14, 4)  # 13 % 4 != 0


class TestStatisticalBalance:
    def test_parity_roughly_even(self):
        lay = PseudoRandomLayout(13, 4)
        counts = [0] * 13
        for _, ((disk, _),) in lay.stripe_table().stripes:
            counts[disk] += 1
        expected = lay.stripes_per_period / 13
        assert all(0.6 * expected < c < 1.4 * expected for c in counts)

    def test_relocation_lands_on_spare(self):
        lay = PseudoRandomLayout(13, 4)
        disk = lay.stripe_table().stripes[0][0][0][0]
        for lost in lay.failure_table(disk):
            if lost is not None:
                assert lay.locate(*lost.home).role is Role.SPARE
                assert lost.home[1] == lost.row

    def test_relocating_spare_rejected(self):
        lay = PseudoRandomLayout(13, 4)
        # A failed disk's spare cells hold nothing to rebuild: no
        # failure-table entry names their rows.
        disk, row = lay.spare_cells()[0]
        assert all(
            lost is None or lost.row != row
            for lost in lay.failure_table(disk)
        )
