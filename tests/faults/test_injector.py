"""FaultInjector: arming semantics and firing on the engine clock."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.faults import FaultInjector, FaultScenario
from repro.sim.engine import SimulationEngine


def make_injector(engine, hits, **scenario_kwargs):
    scenario = FaultScenario(**scenario_kwargs)
    return FaultInjector(
        engine,
        scenario,
        n_disks=13,
        on_failure=lambda disk, t: hits.append((disk, t)),
    )


class TestFaultInjector:
    def test_fires_at_the_scripted_time(self):
        engine = SimulationEngine()
        hits = []
        injector = make_injector(
            engine, hits, fault_time_ms=42.0, failed_disk=5
        )
        injector.arm()
        assert not injector.fired
        engine.run()
        assert hits == [(5, 42.0)]
        assert injector.fired
        assert injector.fired_ms == 42.0

    def test_resolves_stochastic_fault_at_construction(self):
        engine = SimulationEngine()
        injector = make_injector(
            engine, [], mttf_hours=1000.0, fault_seed=11
        )
        scenario = FaultScenario(mttf_hours=1000.0, fault_seed=11)
        assert [
            (injector.fault_time_ms, injector.fault_disk)
        ] == scenario.draw_faults(13)

    def test_rejects_double_arm(self):
        # Double-arming is a caller bug, not a simulation outcome: the
        # error is a ConfigurationError and names the armed state.
        engine = SimulationEngine()
        injector = make_injector(engine, [], fault_time_ms=10.0)
        injector.arm()
        with pytest.raises(
            ConfigurationError,
            match="disk 0 failure at 10.0 ms is already armed",
        ):
            injector.arm()

    def test_rejects_arm_after_fired(self):
        engine = SimulationEngine()
        injector = make_injector(engine, [], fault_time_ms=10.0)
        injector.arm()
        engine.run()
        assert injector.fired
        with pytest.raises(ConfigurationError, match="already armed"):
            injector.arm()

    def test_multi_fault_scenario_fires_in_order(self):
        engine = SimulationEngine()
        hits = []
        injector = make_injector(
            engine,
            hits,
            fault_time_ms=10.0,
            failed_disk=2,
            second_fault_time_ms=30.0,
            second_failed_disk=7,
        )
        injector.arm()
        engine.run()
        assert hits == [(2, 10.0), (7, 30.0)]
        assert injector.fired_ms == 10.0
        assert injector.fired_count == 2

    def test_rejects_fault_in_the_past(self):
        engine = SimulationEngine()
        engine.schedule(50.0, lambda: None)
        engine.run()
        injector = make_injector(engine, [], fault_time_ms=10.0)
        with pytest.raises(SimulationError):
            injector.arm()

    def test_out_of_range_disk_rejected_on_construction(self):
        engine = SimulationEngine()
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            make_injector(engine, [], fault_time_ms=1.0, failed_disk=13)
