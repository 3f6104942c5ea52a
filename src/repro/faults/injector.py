"""Scheduling disk failures on the event loop.

A :class:`FaultInjector` resolves a scenario's fault timing against a
concrete array size, then arms engine events that fire the failures
mid-simulation — the piece that lets rebuild traffic *compete* with live
client traffic instead of failures being applied statically before the
run.  Multi-fault scenarios arm every drawn failure at once; the
lifecycle decides what each subsequent failure means when it lands.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Optional, Tuple

from repro.errors import ConfigurationError, SimulationError
from repro.faults.scenario import FaultScenario
from repro.sim.engine import SimulationEngine

#: ``on_failure(disk, time_ms)`` — the failure landed.
FailureCallback = Callable[[int, float], None]


class FaultInjector:
    """Arms a scenario's failure sequence on the engine.

    >>> from repro.sim.engine import SimulationEngine
    >>> engine = SimulationEngine()
    >>> hits = []
    >>> injector = FaultInjector(
    ...     engine,
    ...     FaultScenario(fault_time_ms=5.0, failed_disk=3),
    ...     n_disks=13,
    ...     on_failure=lambda disk, t: hits.append((disk, t)),
    ... )
    >>> injector.arm()
    >>> engine.run()
    1
    >>> hits
    [(3, 5.0)]
    """

    def __init__(
        self,
        engine: SimulationEngine,
        scenario: FaultScenario,
        n_disks: int,
        on_failure: FailureCallback,
    ):
        self.engine = engine
        self.scenario = scenario
        self.on_failure = on_failure
        self.faults: List[Tuple[float, int]] = scenario.draw_faults(n_disks)
        # First-failure view, kept for single-fault callers.
        self.fault_time_ms, self.fault_disk = self.faults[0]
        self.fired_ms: Optional[float] = None
        self.fired_count = 0
        self._armed = False

    def arm(self) -> None:
        """Schedule every drawn failure; call once, before the run.

        Double-arming (or arming after a failure already fired) is a
        configuration bug in the caller, not a simulation outcome, so it
        raises :class:`ConfigurationError` with the offending state named.
        """
        if self._armed:
            raise ConfigurationError(
                f"fault injector for the disk {self.fault_disk} failure at"
                f" {self.fault_time_ms} ms is already armed;"
                " arm() must be called exactly once"
            )
        if self.fired_count:
            raise ConfigurationError(
                f"cannot arm: {self.fired_count} failure(s) already fired"
                " (build a fresh injector for a new run)"
            )
        if self.fault_time_ms < self.engine.now:
            raise SimulationError(
                f"fault time {self.fault_time_ms} already in the past"
                f" (now = {self.engine.now})"
            )
        self._armed = True
        for time_ms, disk in self.faults:
            self.engine.schedule_at(time_ms, partial(self._fire, disk))

    def _fire(self, disk: int) -> None:
        if self.fired_ms is None:
            self.fired_ms = self.engine.now
        self.fired_count += 1
        self.on_failure(disk, self.engine.now)

    @property
    def fired(self) -> bool:
        return self.fired_ms is not None
