"""Tests for the DATUM layout and its binomial addressing."""

from itertools import combinations
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError, MappingError
from repro.layouts.datum import (
    DatumLayout,
    colex_count_containing,
    colex_rank,
    colex_unrank,
)
from repro.layouts.properties import check_layout


class TestColexMachinery:
    @pytest.mark.parametrize("n,k", [(6, 2), (7, 3), (8, 4), (10, 3)])
    def test_rank_unrank_roundtrip(self, n, k):
        blocks = sorted(combinations(range(n), k), key=lambda b: b[::-1])
        for s, block in enumerate(blocks):
            assert colex_rank(block) == s
            assert colex_unrank(s, k) == block

    def test_negative_rank(self):
        with pytest.raises(MappingError):
            colex_unrank(-1, 3)

    @given(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=0, max_value=60),
        st.integers(min_value=0, max_value=12),
    )
    def test_count_containing_matches_bruteforce(self, k, rank, disk):
        brute = sum(1 for s in range(rank) if disk in colex_unrank(s, k))
        assert colex_count_containing(disk, rank, k) == brute


class TestDatumLayout:
    def test_dimensions(self):
        lay = DatumLayout(13, 4)
        assert lay.stripes_per_period == comb(13, 4)
        assert lay.period == comb(12, 3)

    def test_rejects_k_equal_n(self):
        with pytest.raises(ConfigurationError):
            DatumLayout(5, 5)

    def test_validates(self):
        DatumLayout(13, 4).validate()
        DatumLayout(7, 3).validate()

    def test_offsets_are_occurrence_counts(self):
        lay = DatumLayout(7, 3)
        seen = [0] * 7
        for data, check in lay.stripe_table().stripes:
            for disk, row in data + check:
                assert row == seen[disk]
                seen[disk] += 1
        assert set(seen) == {lay.period}

    def test_goal_profile(self):
        # Paper: DATUM meets 1,2,3,4,6 but neither #5 nor sparing goals.
        # (10, 3): C(10,3) = 120 is divisible by 10, so parity balances
        # exactly.
        report = check_layout(DatumLayout(10, 3))
        assert report.goals_met() == [1, 2, 3, 4, 6]

    def test_parity_near_balanced_when_indivisible(self):
        # C(9,3) = 84 is not a multiple of 9; the best possible check
        # imbalance is 1 and the layout must achieve it.
        report = check_layout(DatumLayout(9, 3))
        assert report.distributed_parity.deviation <= 1

    def test_parity_exactly_balanced_for_paper_config(self):
        lay = DatumLayout(13, 4)
        counts = [0] * 13
        for _, ((disk, _),) in lay.stripe_table().stripes:
            counts[disk] += 1
        assert set(counts) == {comb(13, 4) // 13}

    def test_smallest_working_set(self):
        # Adjacent colex stripes overlap in k-1 disks, so a 2-stripe read
        # touches at most k+1 disks — far below RAID-5's behaviour.
        lay = DatumLayout(13, 4)
        span = 2 * lay.data_per_stripe
        worst = max(
            len({lay.data_unit_address(s + i).disk for i in range(span)})
            for s in range(0, 200)
        )
        assert worst <= lay.k + 2

    def test_mapping_is_tableless(self):
        assert DatumLayout(13, 4).mapping_table_entries() == 0
