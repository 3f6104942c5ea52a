"""Fault injection and array lifecycle orchestration.

The paper's degraded/reconstruction/post-reconstruction results hinge on
rebuild traffic *competing* with client traffic.  This package closes the
loop: a :class:`FaultScenario` declares *when* a disk dies (a fixed
timestamp, or a seeded-exponential draw from the MTTDL parameters of
:mod:`repro.reliability`) and how the rebuild behaves (parallelism,
throttle); a :class:`FaultInjector` schedules the failure on the event
loop; an :class:`ArrayLifecycle` drives the controller through
fault-free -> degraded -> reconstruction -> post-reconstruction with
timestamped transitions.

Scenarios are pure data built from runner specs (see ``LifecycleSpec``
in :mod:`repro.runner.spec` and RUNNER.md), so whole lifecycle sweeps
plug into the ``repro.runner`` cache/parallel machinery.

Multi-fault campaigns build on the same pieces: scenarios can script or
draw failure *sequences*, :mod:`repro.faults.multifault` classifies a
second whole-disk failure exactly against the rebuild frontier,
:class:`MediaErrorMap` seeds latent sector errors, and a
:class:`Scrubber` finds and repairs them before they can ambush a
rebuild.
"""

from repro.faults.crash import CrashInjector
from repro.faults.failslow import FailSlowModel
from repro.faults.injector import FaultInjector
from repro.faults.lifecycle import ArrayLifecycle
from repro.faults.media import MediaErrorMap
from repro.faults.nemesis import (
    NEMESIS_SCHEDULE_VERSION,
    ActiveFaultTracker,
    NemesisEvent,
    NemesisSchedule,
)
from repro.faults.multifault import (
    SecondFailureOutcome,
    evaluate_second_failure,
    second_failure_repair_steps,
)
from repro.faults.oracle import IntegrityOracle, StripeParityModel
from repro.faults.scenario import FaultScenario
from repro.faults.scrubber import SCRUB_ID_BASE, Scrubber

__all__ = [
    "ActiveFaultTracker",
    "ArrayLifecycle",
    "CrashInjector",
    "FailSlowModel",
    "FaultInjector",
    "FaultScenario",
    "IntegrityOracle",
    "MediaErrorMap",
    "NEMESIS_SCHEDULE_VERSION",
    "NemesisEvent",
    "NemesisSchedule",
    "SCRUB_ID_BASE",
    "Scrubber",
    "SecondFailureOutcome",
    "StripeParityModel",
    "evaluate_second_failure",
    "second_failure_repair_steps",
]
