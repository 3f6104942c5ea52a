"""Fault injection and array lifecycle orchestration.

The paper's degraded/reconstruction/post-reconstruction results hinge on
rebuild traffic *competing* with client traffic.  This package closes the
loop: an :class:`ArrayLifecycle` takes a failure list (scripted times
and disks, or a seeded draw from the MTTDL parameters of
:mod:`repro.reliability`) and the rebuild's values (dwell, rows,
parallelism, throttle), schedules the failures on the event loop, builds
each rebuild sweep, and drives the controller through fault-free ->
degraded -> reconstruction -> post-reconstruction with timestamped
transitions.

Each driver reads the failure and rebuild values from its runner spec
(see ``LifecycleSpec`` in :mod:`repro.runner.spec` and RUNNER.md), which
checks them at construction, so whole lifecycle sweeps plug into the
``repro.runner`` cache/parallel machinery.

Multi-fault campaigns build on the same pieces: a failure list may hold
several failures (a harness with its own schedule hands each to the
lifecycle), :mod:`repro.faults.multifault` classifies a second
whole-disk failure exactly against the rebuild frontier,
:class:`MediaErrorMap` seeds latent sector errors, and a
:class:`Scrubber` finds and repairs them before they can ambush a
rebuild.
"""

from repro.faults.crash import CrashInjector
from repro.faults.failslow import FailSlowModel
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
from repro.faults.scrubber import SCRUB_ID_BASE, Scrubber

__all__ = [
    "ActiveFaultTracker",
    "ArrayLifecycle",
    "CrashInjector",
    "FailSlowModel",
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
