"""Fault sources: spec validation and the seeded failure draw."""

import random

import pytest

from repro.errors import ConfigurationError
from repro.experiments.lifecycle import run_lifecycle
from repro.reliability import earliest_failures, exponential_lifetime_ms
from repro.runner import CampaignTrialSpec, LifecycleSpec


class TestValidation:
    def test_needs_exactly_one_fault_source(self):
        with pytest.raises(ConfigurationError):
            LifecycleSpec(layout="pddl")  # neither
        with pytest.raises(ConfigurationError):
            LifecycleSpec(
                layout="pddl", fault_time_ms=100.0, mttf_hours=1000.0
            )  # both

    def test_rejects_bad_ranges(self):
        for fields in (
            {"fault_time_ms": -1.0},
            {"mttf_hours": 0.0},
            {"fault_time_ms": 10.0, "degraded_dwell_ms": -5.0},
            {"fault_time_ms": 10.0, "rebuild_rows": 0},
            {"fault_time_ms": 10.0, "rebuild_parallel": 0},
            {"fault_time_ms": 10.0, "rebuild_throttle_ms": -1.0},
            {"fault_time_ms": 10.0, "failed_disk": -1},
            {"fault_time_ms": 10.0, "failed_disk": 13},
        ):
            with pytest.raises(ConfigurationError):
                LifecycleSpec(layout="pddl", **fields)


class TestDrawFault:
    """Single failures: a scripted one, or the earliest lifetime."""

    def test_deterministic_scenario_is_literal(self):
        run = run_lifecycle(
            LifecycleSpec(
                layout="pddl",
                fault_time_ms=250.0,
                failed_disk=3,
                rebuild_rows=13,
                clients=1,
                post_samples=5,
            )
        )
        assert (run.fault_time_ms, run.fault_disk) == (250.0, 3)

    def test_seeded_draw_is_reproducible(self):
        assert earliest_failures(1000.0, 7, 13, 1) == earliest_failures(
            1000.0, 7, 13, 1
        )

    def test_seed_changes_the_draw(self):
        a = earliest_failures(1000.0, 1, 13, 1)
        b = earliest_failures(1000.0, 2, 13, 1)
        assert a != b

    def test_earliest_disk_wins(self):
        [(time_ms, disk)] = earliest_failures(1000.0, 3, 13, 1)
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
    def test_max_faults_needs_mttf(self):
        with pytest.raises(ConfigurationError):
            CampaignTrialSpec(layout="pddl", mttf_hours=None)
        with pytest.raises(ConfigurationError):
            CampaignTrialSpec(layout="pddl", mttf_hours=0.0)
        with pytest.raises(ConfigurationError):
            CampaignTrialSpec(layout="pddl", faults=0)

    def test_scrub_and_lse_knobs_validate(self):
        with pytest.raises(ConfigurationError):
            CampaignTrialSpec(layout="pddl", lse_per_gb=-1.0)
        with pytest.raises(ConfigurationError):
            CampaignTrialSpec(layout="pddl", scrub_interval_ms=0.0)
        with pytest.raises(ConfigurationError):
            CampaignTrialSpec(layout="pddl", scrub_throttle_ms=-1.0)


class TestDrawFaults:
    def test_stochastic_draws_are_the_earliest_lifetimes(self):
        faults = earliest_failures(1000.0, 11, 13, 3)
        assert len(faults) == 3
        times = [t for t, _ in faults]
        assert times == sorted(times)
        assert len({d for _, d in faults}) == 3
        # The selected failures are exactly the 3 shortest lifetimes of
        # the full per-disk draw.
        all_draws = sorted(earliest_failures(1000.0, 11, 13, 13))
        assert faults == all_draws[:3]

    def test_draw_faults_replays_exactly(self):
        assert earliest_failures(1000.0, 4, 13, 2) == earliest_failures(
            1000.0, 4, 13, 2
        )
