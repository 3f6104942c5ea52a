"""Tests for the RELPR layout."""

import pytest

from repro.core.reconstruction import rebuild_read_tally
from repro.errors import ConfigurationError
from repro.layouts.prime import PrimeLayout
from repro.layouts.relpr import RelprLayout
from repro.layouts.properties import check_goal1, check_goal2, check_goal4


class TestStructure:
    @pytest.mark.parametrize("n,k", [(10, 4), (9, 3), (14, 4), (15, 3)])
    def test_validates_for_composite_n(self, n, k):
        lay = RelprLayout(n, k)
        lay.validate()
        assert check_goal1(lay).satisfied
        assert check_goal4(lay).satisfied

    def test_section_count_is_totient(self):
        assert RelprLayout(10, 4).sections == 4    # phi(10)
        assert RelprLayout(9, 3).sections == 6     # phi(9)
        assert RelprLayout(14, 4).sections == 6    # phi(14)

    def test_gcd_constraint(self):
        with pytest.raises(ConfigurationError):
            RelprLayout(10, 6)  # gcd(5, 10) = 5
        with pytest.raises(ConfigurationError):
            RelprLayout(9, 4)   # gcd(3, 9) = 3

    def test_k_below_n(self):
        with pytest.raises(ConfigurationError):
            RelprLayout(5, 5)

    def test_tableless(self):
        assert RelprLayout(10, 4).mapping_table_entries() == 0


class TestApproximateBalance:
    def test_parity_exactly_balanced(self):
        # One parity unit per disk per section.
        lay = RelprLayout(10, 4)
        assert check_goal2(lay).satisfied

    def test_reconstruction_approximately_balanced(self):
        # For composite n the multiplier differences z*delta only reach
        # residues sharing a divisor structure with n, so a given failure
        # can leave some survivor idle (e.g. disk 5 when disk 0 of 10
        # fails) — the price of generality the paper alludes to with
        # "near-optimal".  Aggregated over all failures, every disk
        # carries load and the imbalance stays bounded.
        lay = RelprLayout(10, 4)
        aggregate = {d: 0 for d in range(lay.n)}
        for failed in range(lay.n):
            tally = rebuild_read_tally(lay, failed)
            for d, v in tally.items():
                aggregate[d] += v
        assert all(v > 0 for v in aggregate.values())
        mean = sum(aggregate.values()) / len(aggregate)
        assert max(aggregate.values()) - min(aggregate.values()) <= mean

    def test_matches_prime_for_prime_n(self):
        # For prime n the multiplier set is all nonzero residues, so RELPR
        # degenerates to exactly our PRIME construction.
        relpr = RelprLayout(13, 4)
        prime = PrimeLayout(13, 4)
        assert relpr.period == prime.period
        assert relpr.stripe_table() == prime.stripe_table()


class TestParallelism:
    def test_near_maximal_within_sections(self):
        lay = RelprLayout(10, 4)
        per_section = lay.n * (lay.k - 1)
        for start in range(0, per_section - lay.n, 3):
            disks = {
                lay.data_unit_address(start + i).disk for i in range(lay.n)
            }
            assert len(disks) == lay.n
