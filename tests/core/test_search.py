"""Tests for hill-climbing permutation search."""

import pytest

from repro.core.development import XorDevelopment
from repro.core.permutation import BasePermutation, PermutationGroup
from repro.core.search import search_permutation_group
from repro.errors import SearchError


class TestSolitarySearch:
    def test_finds_for_prime_n(self):
        perm = search_permutation_group(2, 3, p=1, seed=1)
        assert perm.is_satisfactory()
        assert perm.n == 7

    def test_finds_for_composite_n(self):
        # n = 21 = 4*5 + 1; Table 1 records a solitary solution (k=5, g=4).
        perm = search_permutation_group(4, 5, p=1, seed=1)
        assert perm.is_satisfactory()

    def test_fails_where_group_needed(self):
        # n = 10, k = 3: the paper needed a pair; solitary search with a
        # small budget must raise rather than return junk.
        with pytest.raises(SearchError):
            search_permutation_group(
                3, 3, p=1, seed=1, restarts=6, max_steps=400
            )


class TestGroupSearch:
    def test_escalates_to_pair_for_n10(self):
        result = search_permutation_group(3, 3, seed=3)
        assert isinstance(result, PermutationGroup)
        assert result.p == 2
        assert result.is_satisfactory()

    def test_returns_solitary_when_possible(self):
        result = search_permutation_group(2, 3, seed=0)
        assert isinstance(result, BasePermutation)
        assert result.is_satisfactory()

    def test_fixed_p(self):
        result = search_permutation_group(2, 3, p=2, seed=0)
        assert isinstance(result, PermutationGroup)
        assert result.p == 2
        assert result.is_satisfactory()

    def test_deterministic_for_seed(self):
        a = search_permutation_group(2, 3, seed=42)
        b = search_permutation_group(2, 3, seed=42)
        assert a.values == b.values

    def test_xor_development_search(self):
        dev = XorDevelopment(8)
        result = search_permutation_group(1, 7, dev=dev, seed=0)
        assert result.is_satisfactory(dev)

    def test_budget_exhaustion_raises(self):
        with pytest.raises(SearchError):
            search_permutation_group(
                3, 3, p=1, seed=0, restarts=2, max_steps=50
            )
