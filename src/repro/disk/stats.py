"""Per-disk operation classification and counters (Figures 4/7/15/16).

The paper classifies each physical operation by (a) locality — *local* when
the previous operation on the same disk belonged to the same logical access,
*non-local* otherwise — and (b) the head movement it required: a cylinder
switch, a track (head) switch, or no switch at all (rotation only).  The
seek/no-switch histograms of Figures 4, 7, 15 and 16 are exactly these
counters divided by the number of logical accesses.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional


class DiskOpClass(enum.Enum):
    """Figure 4's four column components."""

    NON_LOCAL_SEEK = "non-local seek"
    CYLINDER_SWITCH = "one cylinder switch"
    TRACK_SWITCH = "one track switch"
    NO_SWITCH = "no-switch"

    # Members are singletons, so the identity hash is equivalent to
    # Enum's name-string hash — and C-speed.  ``by_class[op_class] += 1``
    # runs once per physical operation.
    __hash__ = object.__hash__


def classify_operation(
    local: bool, cylinder_changed: bool, head_changed: bool
) -> DiskOpClass:
    """Classify one physical operation.

    >>> classify_operation(False, True, False)
    <DiskOpClass.NON_LOCAL_SEEK: 'non-local seek'>
    >>> classify_operation(True, False, True)
    <DiskOpClass.TRACK_SWITCH: 'one track switch'>
    """
    if not local:
        return DiskOpClass.NON_LOCAL_SEEK
    if cylinder_changed:
        return DiskOpClass.CYLINDER_SWITCH
    if head_changed:
        return DiskOpClass.TRACK_SWITCH
    return DiskOpClass.NO_SWITCH


@dataclass(slots=True)
class DiskStats:
    """Mutable per-disk counters maintained by the simulator.

    ``slots=True``: the counters are bumped once per physical operation
    (inlined in the disk server's service path), and slot access is
    measurably cheaper than a dict-backed instance there.
    """

    operations: int = 0
    busy_ms: float = 0.0
    seek_ms: float = 0.0
    latency_ms: float = 0.0
    transfer_ms: float = 0.0
    by_class: Dict[DiskOpClass, int] = field(
        default_factory=lambda: {cls: 0 for cls in DiskOpClass}
    )
    #: Logical access that issued the previous operation (for locality).
    last_access_id: Optional[int] = None

    def record(
        self,
        op_class: DiskOpClass,
        seek_ms: float,
        latency_ms: float,
        transfer_ms: float,
    ) -> None:
        self.operations += 1
        self.by_class[op_class] += 1
        self.seek_ms += seek_ms
        self.latency_ms += latency_ms
        self.transfer_ms += transfer_ms
        self.busy_ms += seek_ms + latency_ms + transfer_ms

