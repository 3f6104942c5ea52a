"""Array controller: logical accesses to per-disk physical operations.

:mod:`~repro.array.raidops` is the pure planning core — given a layout, an
operating mode, and a logical access it produces the phased operation graph
(pre-reads before writes, on-the-fly reconstruction for degraded reads,
spare-space redirection after rebuild).  :mod:`~repro.array.controller`
executes plans on the event engine against mechanical drives;
:mod:`~repro.array.reconstructor` is the background rebuild process.
"""

from repro.array.controller import (
    ArrayController,
    IoRecoveryStats,
    LogicalAccess,
    SlowDiskDetector,
)
from repro.array.journal import StripeJournal
from repro.array.raidops import AccessPlan, ArrayMode, UnitOp, plan_access
from repro.array.reconstructor import AdaptiveThrottle, Reconstructor
from repro.array.resync import Resynchronizer, classify_stripe

__all__ = [
    "AccessPlan",
    "AdaptiveThrottle",
    "ArrayController",
    "ArrayMode",
    "IoRecoveryStats",
    "SlowDiskDetector",
    "LogicalAccess",
    "Reconstructor",
    "Resynchronizer",
    "StripeJournal",
    "UnitOp",
    "classify_stripe",
    "plan_access",
]
