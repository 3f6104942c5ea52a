"""Tests for the Parity Declustering layout."""

import pytest

from repro.core.reconstruction import rebuild_read_tally
from repro.designs.catalog import known_bibd
from repro.errors import ConfigurationError
from repro.layouts.parity_decluster import ParityDeclusteringLayout
from repro.layouts.properties import check_layout


class TestStructure:
    def test_paper_configuration(self):
        lay = ParityDeclusteringLayout(13, 4)
        # Period = k(n-1)/(k-1) = 16 (Table 3).
        assert lay.period == 16
        assert lay.stripes_per_period == 52
        lay.validate()

    def test_table_size_matches_table3(self):
        # n(n-1)/(k-1) entries.
        lay = ParityDeclusteringLayout(13, 4)
        assert lay.mapping_table_entries() == 13 * 12 // 3

    def test_explicit_design(self):
        design = known_bibd(7, 3)
        lay = ParityDeclusteringLayout(7, 3, design=design)
        lay.validate()

    def test_mismatched_design_rejected(self):
        design = known_bibd(7, 3)
        with pytest.raises(ConfigurationError):
            ParityDeclusteringLayout(13, 4, design=design)


class TestProperties:
    def test_goal_profile(self):
        # Parity Declustering meets 1,2,3,4,6 but not #5 and has no sparing.
        report = check_layout(ParityDeclusteringLayout(13, 4))
        assert report.goals_met() == [1, 2, 3, 4, 6]
        assert report.distributed_sparing is None

    def test_parity_rotation_balances_checks(self):
        lay = ParityDeclusteringLayout(13, 4)
        counts = [0] * 13
        for _, ((disk, _),) in lay.stripe_table().stripes:
            counts[disk] += 1
        assert len(set(counts)) == 1

    def test_reconstruction_balanced(self):
        tally = rebuild_read_tally(ParityDeclusteringLayout(13, 4), 5)
        assert len(set(tally.values())) == 1

    def test_offsets_stack_contiguously(self):
        lay = ParityDeclusteringLayout(7, 3)
        seen = {d: set() for d in range(7)}
        for data, check in lay.stripe_table().stripes:
            for disk, row in data + check:
                seen[disk].add(row)
        for d in range(7):
            assert seen[d] == set(range(lay.period))
