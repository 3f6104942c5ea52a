"""Tests for the PRIME layout reconstruction and its published properties."""

import json

import pytest

from repro.core.reconstruction import reconstruction_deviation
from repro.errors import ConfigurationError
from repro.layouts.prime import PrimeLayout
from repro.layouts.properties import check_layout
from tests.layouts.prime_pins import (
    PINS_PATH,
    compute_digests,
    prime_pairs,
    tier1_pairs,
)


class TestStructure:
    def test_dimensions(self):
        lay = PrimeLayout(13, 4)
        assert lay.sections == 12
        assert lay.period == 48
        assert lay.stripes_per_period == 156

    def test_needs_prime_n(self):
        with pytest.raises(ConfigurationError):
            PrimeLayout(12, 4)

    def test_needs_k_below_n(self):
        with pytest.raises(ConfigurationError):
            PrimeLayout(13, 13)

    @pytest.mark.parametrize("n,k", [(5, 2), (7, 3), (13, 4), (11, 5)])
    def test_validates(self, n, k):
        PrimeLayout(n, k).validate()


class TestProperties:
    """The properties the PDDL paper relies on for its PRIME comparison."""

    def test_goal_profile(self):
        report = check_layout(PrimeLayout(13, 4))
        met = report.goals_met()
        for goal in (1, 2, 3, 4, 6):
            assert goal in met

    def test_distributed_parity_exact(self):
        lay = PrimeLayout(13, 4)
        counts = [0] * 13
        for _, ((disk, _),) in lay.stripe_table().stripes:
            counts[disk] += 1
        assert set(counts) == {12}  # one per section

    def test_reconstruction_exactly_distributed(self):
        assert reconstruction_deviation(PrimeLayout(13, 4)) == 0
        assert reconstruction_deviation(PrimeLayout(7, 3)) == 0

    def test_near_maximal_parallelism_within_sections(self):
        # Away from section boundaries a read of n contiguous data units
        # touches all n disks.
        lay = PrimeLayout(13, 4)
        per_section = lay.n * (lay.k - 1)
        for start in range(0, per_section - lay.n):
            disks = {
                lay.data_unit_address(start + i).disk for i in range(lay.n)
            }
            assert len(disks) == lay.n

    def test_average_working_set_near_raid5(self):
        # Including boundary starts, the mean working set of an n-unit
        # read deviates from maximal by less than one disk.
        lay = PrimeLayout(13, 4)
        total = 0
        count = lay.data_units_per_period
        for start in range(count):
            total += len(
                {lay.data_unit_address(start + i).disk for i in range(lay.n)}
            )
        assert total / count > lay.n - 1

    def test_tableless(self):
        assert PrimeLayout(13, 4).mapping_table_entries() == 0


class TestPins:
    """Stripe tables pinned in ``tests/data/prime_stripe_tables.json``."""

    def test_pins_cover_every_prime_below_60_and_every_width(self):
        with open(PINS_PATH, "r", encoding="utf-8") as handle:
            pinned = json.load(handle)
        assert sorted(pinned) == sorted(f"{n}-{k}" for n, k in prime_pairs())
        assert len(pinned) == 406

    def test_stripe_tables_match_their_pins(self):
        with open(PINS_PATH, "r", encoding="utf-8") as handle:
            pinned = json.load(handle)
        for key, digest in compute_digests(tier1_pairs()).items():
            assert digest == pinned[key], (
                f"PRIME {key}: the stripe table moved.  If the mapping"
                " changed on purpose, regenerate with"
                " `python -m tests.layouts.prime_pins`."
            )
