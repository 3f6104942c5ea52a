"""Machine-checkable layout goals #1-#8 (paper §1).

``check_layout`` exercises a layout's full pattern and reports, per goal,
whether it holds plus the quantitative deviation — the paper's narrative
("PDDL satisfies #1, #2, #3, #4, #6 and #7, comes close to #8, does not meet
#5") becomes an executable table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.layouts.base import Layout


@dataclass(frozen=True)
class GoalResult:
    """Outcome of one layout goal."""

    satisfied: bool
    deviation: int
    detail: str


@dataclass(frozen=True)
class PropertyReport:
    """Results for goals #1-#8; sparing goals are None when not applicable."""

    single_failure_correcting: GoalResult      # goal 1
    distributed_parity: GoalResult             # goal 2
    distributed_reconstruction: GoalResult     # goal 3
    large_write_optimization: GoalResult       # goal 4
    maximal_read_parallelism: GoalResult       # goal 5
    efficient_mapping: GoalResult              # goal 6 (informational)
    distributed_sparing: Optional[GoalResult]  # goal 7
    degraded_read_parallelism: Optional[GoalResult]  # goal 8

    def goals_met(self) -> List[int]:
        met = []
        pairs = [
            (1, self.single_failure_correcting),
            (2, self.distributed_parity),
            (3, self.distributed_reconstruction),
            (4, self.large_write_optimization),
            (5, self.maximal_read_parallelism),
            (6, self.efficient_mapping),
            (7, self.distributed_sparing),
            (8, self.degraded_read_parallelism),
        ]
        for number, result in pairs:
            if result is not None and result.satisfied:
                met.append(number)
        return met


def _uniform(counts: Dict[int, int], label: str) -> GoalResult:
    values = list(counts.values())
    deviation = max(values) - min(values)
    return GoalResult(
        satisfied=deviation == 0,
        deviation=deviation,
        detail=f"{label}: min={min(values)}, max={max(values)}",
    )


def check_goal1(layout: Layout) -> GoalResult:
    """No two stripe units of a stripe share a disk."""
    worst = 0
    for data, check in layout.stripe_table().stripes:
        disks = [disk for disk, _ in data + check]
        worst = max(worst, len(disks) - len(set(disks)))
    return GoalResult(worst == 0, worst, f"max same-disk collisions: {worst}")


def check_goal2(layout: Layout) -> GoalResult:
    """Check units per disk are uniform over the pattern."""
    counts = {d: 0 for d in range(layout.n)}
    for _, check in layout.stripe_table().stripes:
        for disk, _ in check:
            counts[disk] += 1
    return _uniform(counts, "check units per disk")


def check_goal3(layout: Layout) -> GoalResult:
    """Reconstruction reads are uniform over survivors, for every failure."""
    from repro.core.reconstruction import rebuild_read_tally

    worst = 0
    for failed in range(layout.n):
        tally = rebuild_read_tally(layout, failed)
        worst = max(worst, max(tally.values()) - min(tally.values()))
    return GoalResult(
        worst == 0, worst, f"worst per-failure read imbalance: {worst}"
    )


def check_goal4(layout: Layout) -> GoalResult:
    """Each stripe holds its full complement of contiguous client data
    units (k-1 for single-check stripes, k-c with c check units).

    Structural in this library (Layout.data_units_of_stripe is contiguous
    by construction), so the check verifies the stripe's data arity.
    """
    ok = all(
        len(data) == layout.data_per_stripe
        for data, _ in layout.stripe_table().stripes
    )
    return GoalResult(
        ok, 0 if ok else 1, "contiguous data units fill each stripe"
    )


def working_set_for_read(layout: Layout, start: int, units: int) -> int:
    """Disks touched by a fault-free read of ``units`` data units."""
    return len(
        {layout.data_unit_address(start + i).disk for i in range(units)}
    )


def check_goal5(layout: Layout) -> GoalResult:
    """A read of n contiguous data units touches all n disks, at any offset."""
    worst = layout.n
    for start in range(layout.data_units_per_period):
        worst = min(worst, working_set_for_read(layout, start, layout.n))
    deviation = layout.n - worst
    return GoalResult(
        deviation == 0,
        deviation,
        f"min disks touched by n-unit read: {worst}/{layout.n}",
    )


def check_goal6(layout: Layout) -> GoalResult:
    """Efficient mapping — informational: table entries required."""
    entries = layout.mapping_table_entries()
    return GoalResult(True, entries, f"mapping table entries: {entries}")


def check_goal7(layout: Layout) -> Optional[GoalResult]:
    """Spare units per disk are uniform (layouts with sparing only)."""
    spares = layout.spare_cells()
    if not spares:
        return None
    counts = {d: 0 for d in range(layout.n)}
    for disk, _ in spares:
        counts[disk] += 1
    return _uniform(counts, "spare units per disk")


def check_goal8(layout: Layout, failed_disk: int = 0) -> Optional[GoalResult]:
    """Degraded read parallelism: an ``n - g - 1``-unit read touches that
    many disks during reconstruction-mode operation.

    The read starts are row-aligned ("super stripes"), the case the paper
    says PDDL satisfies.
    """
    spares = layout.spare_cells()
    if not spares:
        return None
    g = len(spares) and (layout.n - 1) // layout.k
    span = layout.n - g - 1
    if span <= 0:
        return None
    step = g * (layout.k - 1)
    per_period = layout.stripes_per_period
    stripes = layout.stripe_table().stripes
    worst = span
    for start in range(0, layout.data_units_per_period, step):
        disks = set()
        for i in range(span):
            addr = layout.data_unit_address(start + i)
            if addr.disk == failed_disk:
                # Stripe membership by disk repeats every period.
                data, check = stripes[
                    layout.stripe_of_data_unit(start + i) % per_period
                ]
                disks.update(
                    disk for disk, _ in data + check if disk != failed_disk
                )
            else:
                disks.add(addr.disk)
        worst = min(worst, len(disks))
    deviation = span - worst
    return GoalResult(
        deviation == 0,
        deviation,
        f"min disks touched by {span}-unit degraded read: {worst}/{span}",
    )


def check_layout(layout: Layout) -> PropertyReport:
    """Run every goal check against one full layout pattern."""
    layout.validate()
    return PropertyReport(
        single_failure_correcting=check_goal1(layout),
        distributed_parity=check_goal2(layout),
        distributed_reconstruction=check_goal3(layout),
        large_write_optimization=check_goal4(layout),
        maximal_read_parallelism=check_goal5(layout),
        efficient_mapping=check_goal6(layout),
        distributed_sparing=check_goal7(layout),
        degraded_read_parallelism=check_goal8(layout),
    )
