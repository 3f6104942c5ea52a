"""Specs reject an access size at construction, not mid-sweep in a
worker."""

import pytest

from repro.errors import ConfigurationError
from repro.runner.spec import (
    CampaignTrialSpec,
    CorruptionTrialSpec,
    CrashTrialSpec,
    ExperimentSpec,
    FailSlowTrialSpec,
    LifecycleSpec,
    NemesisTrialSpec,
    OpenLoopSpec,
    trial_stream_root,
)

#: Every spec kind with an access size, with the fields it needs besides.
SIZED_KINDS = [
    pytest.param(ExperimentSpec, {}, id="response"),
    pytest.param(LifecycleSpec, {"fault_time_ms": 100.0}, id="lifecycle"),
    pytest.param(CampaignTrialSpec, {}, id="campaign"),
    pytest.param(CampaignTrialSpec, {"clients": 0}, id="campaign-unloaded"),
    pytest.param(CrashTrialSpec, {"crash_boundary": 3}, id="crash"),
    pytest.param(NemesisTrialSpec, {}, id="nemesis"),
    pytest.param(OpenLoopSpec, {}, id="openloop"),
    pytest.param(FailSlowTrialSpec, {}, id="failslow"),
    pytest.param(CorruptionTrialSpec, {}, id="corruption"),
]


@pytest.mark.parametrize("cls,fields", SIZED_KINDS)
@pytest.mark.parametrize("size_kb", [0, 12])
def test_rejects_sizes_that_are_not_whole_stripe_units(
    cls, fields, size_kb
):
    with pytest.raises(ConfigurationError):
        cls(layout="pddl", size_kb=size_kb, **fields)
    cls(layout="pddl", size_kb=16, **fields)


def test_corruption_span_must_hold_one_access():
    with pytest.raises(ConfigurationError, match="cannot hold"):
        CorruptionTrialSpec(layout="pddl", size_kb=16, span_units=1)
    CorruptionTrialSpec(layout="pddl", size_kb=16, span_units=2)


def test_trial_stream_root_separates_trials_and_seeds():
    roots = {
        trial_stream_root(seed, trial)
        for seed in range(3)
        for trial in range(200)
    }
    assert len(roots) == 600
    assert trial_stream_root(0, 7) == 7
