"""Analytic disk working set sizes (Figure 3).

The paper computes each layout's working set "by averaging the working set
sizes for logical accesses for every possible offset in the array"; by
periodicity one layout pattern of start offsets suffices.  Because the same
:func:`repro.array.raidops.plan_access` drives both this computation and
the simulator, the Figure 3 numbers and the Figure 4 non-local seek counts
agree by construction — the cross-check the paper points out ("the non-local
seek counts ... and the working set sizes ... are equal; moreover, they are
determined independently").
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.array.raidops import ArrayMode, plan_access
from repro.errors import ConfigurationError
from repro.layouts.base import Layout


def average_working_set(
    layout: Layout,
    span_units: int,
    is_write: bool,
    mode: ArrayMode = ArrayMode.FAULT_FREE,
    failed_disk: Optional[int] = None,
    starts: Optional[Iterable[int]] = None,
) -> float:
    """Mean disks touched by a ``span_units`` access over all starts.

    >>> from repro.layouts import make_layout
    >>> average_working_set(make_layout("raid5", 13, 13), 13, False)
    13.0
    """
    if span_units < 1:
        raise ConfigurationError(f"span must be >= 1, got {span_units}")
    if mode is not ArrayMode.FAULT_FREE and failed_disk is None:
        failed_disk = 0
    if starts is None:
        starts = range(layout.data_units_per_period)
    total = 0
    count = 0
    for start in starts:
        plan = plan_access(
            layout,
            start,
            span_units,
            is_write,
            mode=mode,
            failed_disk=failed_disk,
        )
        total += len(plan.disks_touched())
        count += 1
    if count == 0:
        raise ConfigurationError("no start offsets supplied")
    return total / count


def average_operation_count(
    layout: Layout,
    span_units: int,
    is_write: bool,
    mode: ArrayMode = ArrayMode.FAULT_FREE,
    failed_disk: Optional[int] = None,
) -> float:
    """Mean physical operations per logical access (Figure 4 column
    totals)."""
    if mode is not ArrayMode.FAULT_FREE and failed_disk is None:
        failed_disk = 0
    total = 0
    count = layout.data_units_per_period
    for start in range(count):
        plan = plan_access(
            layout, start, span_units, is_write,
            mode=mode, failed_disk=failed_disk,
        )
        total += plan.operation_count()
    return total / count


#: The four Figure 3 conditions, in the figure's left-to-right order.
FIGURE3_CONDITIONS: Tuple[Tuple[str, bool, ArrayMode], ...] = (
    ("ffread", False, ArrayMode.FAULT_FREE),
    ("ffwrite", True, ArrayMode.FAULT_FREE),
    ("f1read", False, ArrayMode.DEGRADED),
    ("f1write", True, ArrayMode.DEGRADED),
)


def working_set_table(
    layouts: Dict[str, Layout],
    sizes_kb: Iterable[int],
    stripe_unit_kb: int = 8,
) -> Dict[Tuple[str, int, str], float]:
    """Figure 3's full table: (layout, size KB, condition) -> mean DWS."""
    table: Dict[Tuple[str, int, str], float] = {}
    for name, layout in layouts.items():
        for size_kb in sizes_kb:
            if size_kb % stripe_unit_kb:
                raise ConfigurationError(
                    f"{size_kb} KB is not unit-aligned"
                )
            span = size_kb // stripe_unit_kb
            for label, is_write, mode in FIGURE3_CONDITIONS:
                table[(name, size_kb, label)] = average_working_set(
                    layout, span, is_write, mode=mode
                )
    return table
