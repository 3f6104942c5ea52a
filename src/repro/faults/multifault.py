"""Exact loss accounting for a second whole-disk failure.

When a second spindle dies while the first failure is still being
repaired, the outcome is fully determined by the layout mapping and the
rebuild frontier — no sampling, no heuristics.  Over the swept domain of
``rows`` offsets, each non-spare cell of the first failed disk is in one
of four states when disk ``second`` dies:

- **rebuilt, copy elsewhere** — the unit survives; the stripe may have
  lost its ``second``-disk member, but that member is reconstructible
  from the k-1 survivors (which now include the rebuilt copy);
- **rebuilt, copy on the second disk** — the relocated copy just died.
  If the stripe's other members all survive the unit is *re-lost but
  recoverable* (a repeat rebuild reconstructs it again); if the stripe
  ALSO had a member on the second disk, two members are gone and both
  are unrecoverable;
- **un-rebuilt, stripe avoids the second disk** — still reconstructible
  on the fly; the normal sweep can finish it;
- **un-rebuilt, stripe touches the second disk** — two members of one
  stripe are dead: the first disk's unit *and* the second disk's member
  are both unrecoverable.  Data loss.

Cells of the second disk belonging to stripes that never touch the
first disk always have k-1 live peers, so they are recoverable and
contribute no loss.  ``lost_units`` counts every unit (data or check)
left without a surviving or reconstructible copy.

The evaluation is exact and cheap: stripe membership and relocation
targets repeat with the layout period, so one period is analysed and
the per-row classification is reused across cycles (only the rebuild
frontier varies per offset).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, List, Tuple

from repro.core.reconstruction import RebuildStep
from repro.errors import ConfigurationError
from repro.layouts.address import PhysicalAddress, Role


@dataclass(frozen=True)
class SecondFailureOutcome:
    """What a second whole-disk failure costs, exactly.

    ``data_loss`` is True iff at least one unit has no surviving or
    reconstructible copy; ``relost_offsets`` are first-disk offsets
    whose rebuilt copy lived on the second disk but remain recoverable
    (they must be swept again onto a fresh target); ``exposed_unrebuilt``
    counts un-rebuilt first-disk units whose stripe also lost its
    second-disk member (each such stripe loses two units).
    """

    first_disk: int
    second_disk: int
    data_loss: bool
    lost_units: int
    relost_offsets: Tuple[int, ...]
    exposed_unrebuilt: int


def _period_profile(layout, first_disk: int, second_disk: int):
    """Per-row (one period) classification of the first disk's cells.

    Returns ``(is_spare, touches_second, target_disk, target_offset)``
    lists indexed by row.  ``target_*`` is the rebuilt copy's home: the
    same-row spare cell for layouts with distributed sparing, the
    original cell on a replacement spindle otherwise.
    """
    period, _, _, stripes = layout.stripe_table()
    # A relocated view's own disk holds nothing; its locate raises.
    layout.locate(first_disk, 0)
    # Rows the failure table names hold stripe units; the rest spares.
    is_spare: List[bool] = [True] * period
    touches: List[bool] = [False] * period
    target_disk: List[int] = [first_disk] * period
    target_offset: List[int] = list(range(period))
    for index, lost in enumerate(layout.failure_table(first_disk)):
        if lost is None:
            continue
        row = lost.row
        is_spare[row] = False
        data, check = stripes[index]
        touches[row] = any(disk == second_disk for disk, _ in data + check)
        target_disk[row], target_offset[row] = lost.home
    return is_spare, touches, target_disk, target_offset


def evaluate_second_failure(
    layout,
    first_disk: int,
    second_disk: int,
    rebuilt: Container[int],
    rows: int,
) -> SecondFailureOutcome:
    """Classify a second failure against the rebuild frontier.

    ``rebuilt`` is the set of first-disk offsets already swept (the
    reconstructor's frontier); ``rows`` is the repair domain — the same
    row bound the rebuild sweeps, so the evaluation and the simulation
    describe the same (possibly truncated) array.
    """
    if first_disk == second_disk:
        raise ConfigurationError("second failure must strike a new disk")
    for disk in (first_disk, second_disk):
        if not 0 <= disk < layout.n:
            raise ConfigurationError(
                f"disk {disk} outside 0..{layout.n - 1}"
            )
    if rows < 1:
        raise ConfigurationError(f"need >= 1 row, got {rows}")
    is_spare, touches, target_disk, _ = _period_profile(
        layout, first_disk, second_disk
    )
    period = layout.period
    lost = 0
    exposed = 0
    relost: List[int] = []
    for offset in range(rows):
        row = offset % period
        if is_spare[row]:
            continue
        if offset in rebuilt:
            if target_disk[row] == second_disk:
                if touches[row]:
                    # Relocated copy and a sibling member both died.
                    lost += 2
                else:
                    relost.append(offset)
        elif touches[row]:
            # Stripe lost two members: the un-rebuilt unit and its
            # sibling on the second disk.
            lost += 2
            exposed += 1
    return SecondFailureOutcome(
        first_disk=first_disk,
        second_disk=second_disk,
        data_loss=lost > 0,
        lost_units=lost,
        relost_offsets=tuple(relost),
        exposed_unrebuilt=exposed,
    )


def second_failure_repair_steps(
    layout,
    first_disk: int,
    second_disk: int,
    relost_offsets: Tuple[int, ...],
    rebuilt: Container[int],
    rows: int,
) -> List[RebuildStep]:
    """The extra sweep work a *survivable* second failure creates.

    Two kinds of steps, both writable once a replacement spindle sits in
    the second disk's slot:

    - every re-lost first-disk unit is reconstructed again from its
      surviving stripe members and written back to its original spare
      target (now on the replacement);
    - every non-spare cell of the second disk is reconstructed from its
      stripe; first-disk members of those stripes are read from their
      rebuilt copies (a survivable failure guarantees they are rebuilt
      with live targets).

    Offsets the normal sweep has not reached are *not* duplicated here —
    the in-progress sweep still owns them.

    Truncated domains (``rows`` < one layout period) follow the same
    convention as the rebuild sweep: cells outside the swept domain are
    treated as intact, so a straddling stripe may read a first-disk
    member at an out-of-domain offset directly.
    """
    period, per_period, _, stripes = layout.stripe_table()
    first_lost = layout.failure_table(first_disk)
    sparing = layout.has_sparing
    steps: List[RebuildStep] = []
    for offset in sorted(set(relost_offsets)):
        info = layout.locate(first_disk, offset)
        cycle, index = divmod(info.stripe, per_period)
        shift = cycle * period
        data, check = stripes[index]
        disk, row = first_lost[index].home
        steps.append(
            RebuildStep(
                lost=PhysicalAddress(first_disk, offset),
                stripe=info.stripe,
                reads=[
                    PhysicalAddress(d, r + shift)
                    for d, r in data + check
                    if d != first_disk and d != second_disk
                ],
                write=PhysicalAddress(disk, row + shift),
            )
        )
    for offset in range(rows):
        info = layout.locate(second_disk, offset)
        if info.role is Role.SPARE:
            # Spare cells of the second disk either held a relocated
            # first-disk unit (covered by relost steps above) or were
            # still empty — nothing to rebuild in place.
            continue
        cycle, index = divmod(info.stripe, per_period)
        shift = cycle * period
        data, check = stripes[index]
        members = data + check
        homes = members
        lost = first_lost[index]
        if sparing and lost is not None and lost.row + shift in rebuilt:
            # The first-disk member is read from its spare.  Without
            # sparing the replacement spindle serves the original
            # address once swept; un-swept first-disk members of
            # second-disk stripes mean the failure was not survivable
            # and this function must not be called.
            homes = lost.data + lost.check
        steps.append(
            RebuildStep(
                lost=PhysicalAddress(second_disk, offset),
                stripe=info.stripe,
                reads=[
                    PhysicalAddress(d, r + shift)
                    for (member_disk, _), (d, r) in zip(members, homes)
                    if member_disk != second_disk
                ],
                write=None,
            )
        )
    return steps
