"""Failure scheduling: ``ArrayLifecycle.arm(faults)`` schedules the
failure list its driver draws or scripts and fires each on the engine
clock.

The file and class keep the names of the injector object that once did
this job; every behaviour it was tested for is the lifecycle's now.
"""

import pytest

from repro.array.controller import ArrayController
from repro.errors import ConfigurationError, SimulationError
from repro.faults import ArrayLifecycle
from repro.layouts import make_layout
from repro.reliability import earliest_failures
from repro.sim.engine import SimulationEngine


def make_lifecycle(**rebuild_kwargs):
    rebuild_kwargs.setdefault("rebuild_rows", 13)
    engine = SimulationEngine()
    controller = ArrayController(engine, make_layout("pddl", 13, 4))
    return engine, ArrayLifecycle(controller, **rebuild_kwargs)


class TestFaultInjector:
    def test_fires_at_the_scripted_time(self):
        engine, lifecycle = make_lifecycle()
        lifecycle.arm([(42.0, 5)])
        assert lifecycle.faults == [(42.0, 5)]
        assert lifecycle.fired_count == 0
        engine.run()
        assert lifecycle.fired_count == 1
        assert lifecycle.transitions[1] == ("degraded", 42.0)
        assert lifecycle.controller.failed_disk == 5

    def test_resolves_stochastic_fault_at_construction(self):
        # The draw is made before the run and armed as drawn.
        engine, lifecycle = make_lifecycle()
        faults = earliest_failures(1000.0, 11, 13, 1)
        assert lifecycle.faults == []
        lifecycle.arm(faults)
        assert lifecycle.faults == faults

    def test_rejects_double_arm(self):
        # The rejected arm() schedules nothing: the failure fires once.
        engine, lifecycle = make_lifecycle()
        lifecycle.arm([(10.0, 0)])
        with pytest.raises(SimulationError, match="already armed"):
            lifecycle.arm([(20.0, 1)])
        engine.run()
        assert lifecycle.fired_count == 1

    def test_rejects_arm_after_fired(self):
        engine, lifecycle = make_lifecycle()
        lifecycle.arm([(10.0, 0)])
        engine.run()
        assert lifecycle.fired_count == 1
        with pytest.raises(SimulationError, match="already armed"):
            lifecycle.arm([(20.0, 1)])

    def test_multi_fault_scenario_fires_in_order(self):
        # Seed 0 draws three failures, and the array is still degraded
        # or rebuilding when the later two land, so each leaves a record.
        engine, lifecycle = make_lifecycle(rebuild_rows=26)
        lifecycle.arm(earliest_failures(0.03, 0, 13, 3))
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
        engine, lifecycle = make_lifecycle()
        engine.schedule(50.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError, match="already in the past"):
            lifecycle.arm([(10.0, 0)])
        assert lifecycle.faults == []

    def test_out_of_range_disk_rejected_on_construction(self):
        # arm() checks each failure's disk before it schedules any.
        engine, lifecycle = make_lifecycle()
        with pytest.raises(ConfigurationError, match="outside"):
            lifecycle.arm([(1.0, 0), (2.0, 13)])
        assert lifecycle.faults == []
