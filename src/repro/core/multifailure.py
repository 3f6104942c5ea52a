"""Multiple-failure tolerance (paper §1 and §5).

"PDDL allows 'arbitrary' fixed combinations of check and data blocks" and
"can be adjusted to schemes using more than one check block per stripe":
with ``c`` check units per stripe (an MDS code such as Reed-Solomon over
the stripe, P+Q for c = 2) any ``c`` concurrent disk failures are
tolerable, and with ``s >= c`` distributed spare columns each failure
rebuilds into its own spare column.

This module plans multi-failure reconstruction over a
:class:`~repro.core.layout.PDDLLayout` and provides the analytic tallies
that generalize goal #3 to concurrent failures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.core.layout import PDDLLayout
from repro.core.reconstruction import _stripe_rows
from repro.errors import ConfigurationError, MappingError
from repro.layouts.address import PhysicalAddress


@dataclass(frozen=True)
class MultiRebuildStep:
    """Work to rebuild the lost units of one stripe after >= 1 failures.

    ``lost`` maps each lost cell to the spare cell that receives its
    rebuilt contents; ``reads`` are the surviving units decoded to recover
    them (an MDS code needs any ``k - c`` survivors; we read all of them,
    which is what an erasure decoder consumes).
    """

    stripe: int
    lost: Dict[PhysicalAddress, PhysicalAddress]
    reads: List[PhysicalAddress]


def multi_rebuild_plan(
    layout: PDDLLayout,
    failed_disks: Sequence[int],
    rows: int = 0,
) -> Iterator[MultiRebuildStep]:
    """Yield per-stripe rebuild steps for a set of concurrent failures.

    Requires ``len(failed_disks) <= checks`` (code strength) and
    ``<= spares`` (room to rebuild into).  Spare cells lost on failed
    disks are skipped — there is nothing to rebuild, and later failures
    simply use the next available spare column.
    """
    failures = list(dict.fromkeys(failed_disks))
    if len(failures) != len(failed_disks):
        raise ConfigurationError(f"duplicate failed disks in {failed_disks}")
    for disk in failures:
        if not 0 <= disk < layout.n:
            raise ConfigurationError(f"no disk {disk}")
    if len(failures) > layout.checks:
        raise ConfigurationError(
            f"{len(failures)} failures exceed the {layout.checks}-failure"
            f" tolerance of a {layout.checks}-check stripe"
        )
    if len(failures) > layout.spares:
        raise ConfigurationError(
            f"{len(failures)} failures exceed the {layout.spares}"
            " distributed spare column(s)"
        )
    rows = rows or layout.period
    failed_set = set(failures)
    spare_of = {disk: i for i, disk in enumerate(failures)}
    period, per_period, _, stripes = layout.stripe_table()
    stripe_rows = [_stripe_rows(layout, disk) for disk in failures]
    # The i-th failure rebuilds into the i-th spare cell of the same row.
    spare_disks = layout.spares_by_row()

    seen_stripes = set()
    for offset in range(rows):
        cycle, row = divmod(offset, period)
        shift = cycle * period
        for stripe_at in stripe_rows:
            index = stripe_at[row]
            if index is None:
                continue
            stripe = index + cycle * per_period
            if stripe in seen_stripes:
                continue
            seen_stripes.add(stripe)
            data, check = stripes[index]
            lost: Dict[PhysicalAddress, PhysicalAddress] = {}
            reads: List[PhysicalAddress] = []
            for member_disk, member_row in data + check:
                addr = PhysicalAddress(member_disk, member_row + shift)
                if member_disk in failed_set:
                    lost[addr] = PhysicalAddress(
                        spare_disks[member_row][spare_of[member_disk]],
                        addr.offset,
                    )
                else:
                    reads.append(addr)
            if len(reads) < layout.k - layout.checks:
                raise MappingError(
                    f"stripe {stripe} lost too many units to decode"
                )
            yield MultiRebuildStep(stripe=stripe, lost=lost, reads=reads)


def multi_rebuild_read_tally(
    layout: PDDLLayout, failed_disks: Sequence[int]
) -> Dict[int, int]:
    """Per-survivor read counts over one period of multi-failure rebuild."""
    tally = {
        d: 0 for d in range(layout.n) if d not in set(failed_disks)
    }
    for step in multi_rebuild_plan(layout, failed_disks):
        for addr in step.reads:
            tally[addr.disk] += 1
    return tally


def worst_case_tally_deviation(
    layout: PDDLLayout, failures: int = 2
) -> Tuple[int, Tuple[int, ...]]:
    """Max read-tally imbalance over all failure combinations of a size.

    Returns ``(deviation, worst_combination)``; small deviations mean the
    development structure keeps multi-failure rebuild load spread too.
    """
    from itertools import combinations

    if failures < 1:
        raise ConfigurationError("need at least one failure")
    worst = -1
    worst_combo: Tuple[int, ...] = ()
    for combo in combinations(range(layout.n), failures):
        tally = multi_rebuild_read_tally(layout, combo)
        deviation = max(tally.values()) - min(tally.values())
        if deviation > worst:
            worst = deviation
            worst_combo = combo
    return worst, worst_combo


def degraded_read_cost(
    layout: PDDLLayout, failed_disks: Sequence[int]
) -> float:
    """Mean physical reads per client data unit in multi-degraded mode.

    1.0 when nothing failed; grows with the fraction of units whose
    stripes must be decoded.
    """
    failed_set = set(failed_disks)
    stripes = layout.stripe_table().stripes
    total = 0
    count = layout.data_units_per_period
    for unit in range(count):
        addr = layout.data_unit_address(unit)
        if addr.disk in failed_set:
            data, check = stripes[layout.stripe_of_data_unit(unit)]
            total += sum(
                1 for disk, _ in data + check if disk not in failed_set
            )
        else:
            total += 1
    return total / count
