"""Failure scheduling: ``ArrayLifecycle.arm()`` draws the scenario's
failures and fires each on the engine clock.

The file and class keep the names of the injector object that once did
this job; every behaviour it was tested for is the lifecycle's now.
"""

import pytest

from repro.array.controller import ArrayController
from repro.errors import ConfigurationError, SimulationError
from repro.faults import ArrayLifecycle, FaultScenario
from repro.layouts import make_layout
from repro.sim.engine import SimulationEngine


def make_lifecycle(**scenario_kwargs):
    scenario_kwargs.setdefault("rebuild_rows", 13)
    engine = SimulationEngine()
    controller = ArrayController(engine, make_layout("pddl", 13, 4))
    return engine, ArrayLifecycle(controller, FaultScenario(**scenario_kwargs))


class TestFaultInjector:
    def test_fires_at_the_scripted_time(self):
        engine, lifecycle = make_lifecycle(fault_time_ms=42.0, failed_disk=5)
        lifecycle.arm()
        assert lifecycle.faults == [(42.0, 5)]
        assert lifecycle.fired_count == 0
        engine.run()
        assert lifecycle.fired_count == 1
        assert lifecycle.transitions[1] == ("degraded", 42.0)
        assert lifecycle.controller.failed_disk == 5

    def test_resolves_stochastic_fault_at_construction(self):
        # The draw is made when the lifecycle arms, before the run.
        engine, lifecycle = make_lifecycle(mttf_hours=1000.0, fault_seed=11)
        assert lifecycle.faults == []
        lifecycle.arm()
        assert lifecycle.faults == lifecycle.scenario.draw_faults(13)

    def test_rejects_double_arm(self):
        # The rejected arm() schedules nothing: the failure fires once.
        engine, lifecycle = make_lifecycle(fault_time_ms=10.0)
        lifecycle.arm()
        with pytest.raises(SimulationError, match="already armed"):
            lifecycle.arm()
        engine.run()
        assert lifecycle.fired_count == 1

    def test_rejects_arm_after_fired(self):
        engine, lifecycle = make_lifecycle(fault_time_ms=10.0)
        lifecycle.arm()
        engine.run()
        assert lifecycle.fired_count == 1
        with pytest.raises(SimulationError, match="already armed"):
            lifecycle.arm()

    def test_multi_fault_scenario_fires_in_order(self):
        # Seed 0 draws three failures, and the array is still degraded
        # or rebuilding when the later two land, so each leaves a record.
        engine, lifecycle = make_lifecycle(
            mttf_hours=0.03, fault_seed=0, max_faults=3, rebuild_rows=26
        )
        lifecycle.arm()
        engine.run()
        faults = lifecycle.faults
        assert len(faults) == 3
        assert [t for t, _ in faults] == sorted(t for t, _ in faults)
        assert lifecycle.fired_count == 3
        assert lifecycle.transitions[1] == ("degraded", faults[0][0])
        assert [
            (record["time_ms"], record["disk"])
            for record in lifecycle.second_faults
        ] == faults[1:]

    def test_rejects_fault_in_the_past(self):
        engine, lifecycle = make_lifecycle(fault_time_ms=10.0)
        engine.schedule(50.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError, match="already in the past"):
            lifecycle.arm()
        assert lifecycle.faults == []

    def test_out_of_range_disk_rejected_on_construction(self):
        # The disk is checked when arm() draws the failure.
        engine, lifecycle = make_lifecycle(fault_time_ms=1.0, failed_disk=13)
        with pytest.raises(ConfigurationError):
            lifecycle.arm()
