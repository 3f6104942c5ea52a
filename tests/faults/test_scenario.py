"""FaultScenario: validation and fault resolution."""

import random

import pytest

from repro.errors import ConfigurationError
from repro.faults import FaultScenario
from repro.reliability import exponential_lifetime_ms


class TestValidation:
    def test_needs_exactly_one_fault_source(self):
        with pytest.raises(ConfigurationError):
            FaultScenario()  # neither
        with pytest.raises(ConfigurationError):
            FaultScenario(fault_time_ms=100.0, mttf_hours=1000.0)  # both

    def test_rejects_bad_ranges(self):
        with pytest.raises(ConfigurationError):
            FaultScenario(fault_time_ms=-1.0)
        with pytest.raises(ConfigurationError):
            FaultScenario(mttf_hours=0.0)
        with pytest.raises(ConfigurationError):
            FaultScenario(fault_time_ms=10.0, degraded_dwell_ms=-5.0)
        with pytest.raises(ConfigurationError):
            FaultScenario(fault_time_ms=10.0, rebuild_parallel=0)
        with pytest.raises(ConfigurationError):
            FaultScenario(fault_time_ms=10.0, rebuild_throttle_ms=-1.0)
        with pytest.raises(ConfigurationError):
            FaultScenario(fault_time_ms=10.0, failed_disk=-1)


class TestDrawFault:
    """Single-fault scenarios: ``draw_faults`` returns one failure."""

    def test_deterministic_scenario_is_literal(self):
        scenario = FaultScenario(failed_disk=3, fault_time_ms=250.0)
        assert scenario.draw_faults(13) == [(250.0, 3)]

    def test_seeded_draw_is_reproducible(self):
        scenario = FaultScenario(mttf_hours=1000.0, fault_seed=7)
        assert scenario.draw_faults(13) == scenario.draw_faults(13)

    def test_seed_changes_the_draw(self):
        a = FaultScenario(mttf_hours=1000.0, fault_seed=1).draw_faults(13)
        b = FaultScenario(mttf_hours=1000.0, fault_seed=2).draw_faults(13)
        assert a != b

    def test_earliest_disk_wins(self):
        scenario = FaultScenario(mttf_hours=1000.0, fault_seed=3)
        [(time_ms, disk)] = scenario.draw_faults(13)
        assert 0 <= disk < 13
        assert time_ms > 0
        # The winning lifetime is the minimum over per-disk draws.
        draws = [
            exponential_lifetime_ms(
                1000.0, random.Random(f"3/disk-{d}")
            )
            for d in range(13)
        ]
        assert time_ms == min(draws)
        assert disk == draws.index(min(draws))


class TestMultiFaultValidation:
    def test_scripted_second_fault_needs_both_fields(self):
        with pytest.raises(ConfigurationError):
            FaultScenario(fault_time_ms=10.0, second_fault_time_ms=20.0)
        with pytest.raises(ConfigurationError):
            FaultScenario(fault_time_ms=10.0, second_failed_disk=3)

    def test_second_fault_must_land_after_the_first(self):
        with pytest.raises(ConfigurationError):
            FaultScenario(
                fault_time_ms=10.0,
                second_fault_time_ms=10.0,
                second_failed_disk=3,
            )

    def test_second_fault_must_hit_a_new_disk(self):
        with pytest.raises(ConfigurationError):
            FaultScenario(
                failed_disk=3,
                fault_time_ms=10.0,
                second_fault_time_ms=20.0,
                second_failed_disk=3,
            )

    def test_max_faults_needs_mttf(self):
        with pytest.raises(ConfigurationError):
            FaultScenario(fault_time_ms=10.0, max_faults=2)
        with pytest.raises(ConfigurationError):
            FaultScenario(mttf_hours=100.0, max_faults=0)

    def test_scrub_and_lse_knobs_validate(self):
        with pytest.raises(ConfigurationError):
            FaultScenario(fault_time_ms=10.0, lse_per_gb=-1.0)
        with pytest.raises(ConfigurationError):
            FaultScenario(fault_time_ms=10.0, scrub_interval_ms=0.0)
        with pytest.raises(ConfigurationError):
            FaultScenario(fault_time_ms=10.0, scrub_throttle_ms=-1.0)


class TestDrawFaults:
    def test_scripted_pair_in_order(self):
        scenario = FaultScenario(
            failed_disk=2,
            fault_time_ms=100.0,
            second_fault_time_ms=250.0,
            second_failed_disk=7,
        )
        assert scenario.draw_faults(13) == [(100.0, 2), (250.0, 7)]

    def test_stochastic_draws_are_the_earliest_lifetimes(self):
        scenario = FaultScenario(
            mttf_hours=1000.0, fault_seed=11, max_faults=3
        )
        faults = scenario.draw_faults(13)
        assert len(faults) == 3
        times = [t for t, _ in faults]
        assert times == sorted(times)
        assert len({d for _, d in faults}) == 3
        # The selected failures are exactly the 3 shortest lifetimes of
        # the full per-disk draw.
        all_draws = sorted(
            FaultScenario(
                mttf_hours=1000.0, fault_seed=11, max_faults=13
            ).draw_faults(13)
        )
        assert faults == all_draws[:3]

    def test_draw_faults_replays_exactly(self):
        scenario = FaultScenario(
            mttf_hours=1000.0, fault_seed=4, max_faults=2
        )
        assert scenario.draw_faults(13) == scenario.draw_faults(13)
