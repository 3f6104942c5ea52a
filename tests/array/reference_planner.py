"""The access planner as it stood before table-driven planning.

A verbatim copy of ``plan_access`` and its helpers from the era when
``repro.array.raidops`` planned every write and degraded read by
materialising ``StripeUnits`` through ``Layout.stripe_units`` (now
``tests.layouts.reference_layout.stripe_units``) and grouping units
through dicts and sets.  It is kept only as the reference
the property tests in ``test_planner_reference.py`` compare the
table-driven planner against, phase by phase and op by op.  Do not edit
it to follow the live planner: a difference between the two is a bug in
the live one.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.array.raidops import AccessPlan, ArrayMode, RebuiltPredicate, UnitOp
from repro.errors import ConfigurationError, MappingError
from repro.layouts.address import PhysicalAddress
from repro.layouts.base import Layout
from tests.layouts import reference_layout


def plan_access(
    layout: Layout,
    first_unit: int,
    unit_count: int,
    is_write: bool,
    mode: ArrayMode = ArrayMode.FAULT_FREE,
    failed_disk: Optional[int] = None,
    rebuilt: Optional[RebuiltPredicate] = None,
) -> AccessPlan:
    """Plan a logical access of ``unit_count`` contiguous data units.

    ``failed_disk`` is required (and only allowed) outside fault-free mode;
    ``rebuilt`` is the reconstruction-mode rebuild frontier and is required
    (and only allowed) in :attr:`ArrayMode.RECONSTRUCTION`.
    """
    if unit_count < 1:
        raise ConfigurationError(f"access needs >= 1 unit, got {unit_count}")
    if first_unit < 0:
        raise ConfigurationError(f"negative start unit {first_unit}")
    if mode is ArrayMode.DATA_LOSS:
        raise MappingError(
            "the array has lost data; accesses can no longer be planned"
        )
    if mode is ArrayMode.FAULT_FREE:
        if failed_disk is not None:
            raise ConfigurationError("fault-free mode has no failed disk")
    else:
        if failed_disk is None or not 0 <= failed_disk < layout.n:
            raise ConfigurationError(
                f"mode {mode.value} needs a valid failed disk"
            )
    if mode is ArrayMode.RECONSTRUCTION:
        if rebuilt is None:
            raise ConfigurationError(
                "reconstruction mode needs a rebuilt(offset) predicate"
            )
    elif rebuilt is not None:
        raise ConfigurationError(
            f"mode {mode.value} takes no rebuild frontier"
        )
    if mode is ArrayMode.POST_RECONSTRUCTION and not layout.has_sparing:
        raise MappingError(
            f"{layout.name} has no spare space for post-reconstruction mode"
        )

    units = range(first_unit, first_unit + unit_count)
    if not is_write and mode is ArrayMode.FAULT_FREE:
        # Hot path (the vast majority of Figure 5/6 traffic): straight
        # translation.  The data-unit mapping is injective — distinct
        # units land in distinct cells — so dedupe has nothing to do.
        cells = layout.data_unit_cells(first_unit, unit_count)
        return AccessPlan(
            phases=[[UnitOp(d, o, False) for d, o in cells]]
        )
    if is_write:
        plan = _plan_write(layout, units, mode, failed_disk, rebuilt)
    else:
        plan = _plan_read(layout, units, mode, failed_disk, rebuilt)
    return _dedupe(plan)


# ----------------------------------------------------------------------
# Reads.
# ----------------------------------------------------------------------


def _plan_read(
    layout: Layout,
    units: range,
    mode: ArrayMode,
    failed_disk: Optional[int],
    rebuilt: Optional[RebuiltPredicate],
) -> AccessPlan:
    ops: List[UnitOp] = []
    for unit in units:
        addr = layout.data_unit_address(unit)
        if addr.disk != failed_disk:
            ops.append(UnitOp(addr.disk, addr.offset, False))
        elif mode is ArrayMode.POST_RECONSTRUCTION or (
            mode is ArrayMode.RECONSTRUCTION and rebuilt(addr.offset)
        ):
            # Lost unit already swept: read the rebuilt copy — the spare
            # cell (distributed sparing) or the replacement spindle.
            if layout.has_sparing:
                spare = layout.relocation_target(addr)
                ops.append(UnitOp(spare.disk, spare.offset, False))
            else:
                ops.append(UnitOp(addr.disk, addr.offset, False))
        else:  # DEGRADED or un-rebuilt: reconstruct on the fly from survivors
            stripe = layout.stripe_of_data_unit(unit)
            members = reference_layout.stripe_units(layout, stripe)
            for other in members.all_units():
                if other.disk != failed_disk:
                    ops.append(UnitOp(other.disk, other.offset, False))
    return AccessPlan(phases=[ops])


# ----------------------------------------------------------------------
# Writes.
# ----------------------------------------------------------------------


def _stripe_groups(
    layout: Layout, units: range
) -> Dict[int, List[Tuple[int, int]]]:
    """Group accessed units by stripe: stripe -> [(position, unit), ...]."""
    groups: Dict[int, List[Tuple[int, int]]] = {}
    for unit in units:
        stripe = layout.stripe_of_data_unit(unit)
        position = unit % layout.data_per_stripe
        groups.setdefault(stripe, []).append((position, unit))
    return groups


def _redirect(
    layout: Layout, addr: PhysicalAddress, mode: ArrayMode, failed: Optional[int]
) -> PhysicalAddress:
    if mode is ArrayMode.POST_RECONSTRUCTION and addr.disk == failed:
        return layout.relocation_target(addr)
    return addr


def _plan_write(
    layout: Layout,
    units: range,
    mode: ArrayMode,
    failed_disk: Optional[int],
    rebuilt: Optional[RebuiltPredicate],
) -> AccessPlan:
    pre_reads: List[UnitOp] = []
    writes: List[UnitOp] = []
    for stripe, touched in _stripe_groups(layout, units).items():
        stripe_units = reference_layout.stripe_units(layout, stripe)
        written_positions = {position for position, _ in touched}
        stripe_mode = mode
        if mode is ArrayMode.RECONSTRUCTION:
            # Per-stripe: behind the rebuild frontier the stripe behaves
            # post-reconstruction (spare redirect), ahead of it degraded.
            lost = next(
                (
                    a
                    for a in stripe_units.all_units()
                    if a.disk == failed_disk
                ),
                None,
            )
            if lost is None or rebuilt(lost.offset):
                # Spare redirect with sparing; the replacement spindle
                # serves the original addresses without.
                stripe_mode = (
                    ArrayMode.POST_RECONSTRUCTION
                    if layout.has_sparing
                    else ArrayMode.FAULT_FREE
                )
            else:
                stripe_mode = ArrayMode.DEGRADED
        if stripe_mode is ArrayMode.DEGRADED:
            reads, wr = _plan_stripe_write_degraded(
                layout, stripe_units, written_positions, failed_disk
            )
        else:
            reads, wr = _plan_stripe_write_clean(
                layout, stripe_units, written_positions, stripe_mode,
                failed_disk,
            )
        pre_reads.extend(reads)
        writes.extend(wr)
    if pre_reads:
        return AccessPlan(phases=[pre_reads, writes])
    return AccessPlan(phases=[writes])


def _plan_stripe_write_clean(
    layout: Layout,
    stripe_units,
    written: Set[int],
    mode: ArrayMode,
    failed: Optional[int],
) -> Tuple[List[UnitOp], List[UnitOp]]:
    """Fault-free and post-reconstruction stripe write planning."""
    dps = layout.data_per_stripe
    m = len(written)

    def addr(a: PhysicalAddress) -> PhysicalAddress:
        return _redirect(layout, a, mode, failed)

    check = [addr(a) for a in stripe_units.check]
    reads: List[UnitOp] = []
    writes: List[UnitOp] = [
        UnitOp(*addr(stripe_units.data[p]), True) for p in sorted(written)
    ]
    if m == dps:
        # Full-stripe write: parity computed from new data alone.
        writes.extend(UnitOp(*a, True) for a in check)
    elif m <= dps // 2:
        # Small write: read old data + old parity.
        reads.extend(
            UnitOp(*addr(stripe_units.data[p]), False) for p in sorted(written)
        )
        reads.extend(UnitOp(*a, False) for a in check)
        writes.extend(UnitOp(*a, True) for a in check)
    else:
        # Large (reconstruct) write: read the untouched data units.
        reads.extend(
            UnitOp(*addr(stripe_units.data[p]), False)
            for p in range(dps)
            if p not in written
        )
        writes.extend(UnitOp(*a, True) for a in check)
    return reads, writes


def _plan_stripe_write_degraded(
    layout: Layout,
    stripe_units,
    written: Set[int],
    failed: int,
) -> Tuple[List[UnitOp], List[UnitOp]]:
    """Degraded-mode stripe write planning (§4.2's forced large writes)."""
    dps = layout.data_per_stripe
    m = len(written)
    check_failed = any(a.disk == failed for a in stripe_units.check)
    failed_data_position = next(
        (
            p
            for p in range(dps)
            if stripe_units.data[p].disk == failed
        ),
        None,
    )

    reads: List[UnitOp] = []
    writes: List[UnitOp] = [
        UnitOp(*stripe_units.data[p], True)
        for p in sorted(written)
        if stripe_units.data[p].disk != failed
    ]

    if check_failed:
        # Parity lost: write the surviving data units, nothing to maintain.
        return reads, writes

    check_writes = [UnitOp(*a, True) for a in stripe_units.check]
    if failed_data_position is None:
        # Stripe untouched by the failure: plan as fault-free.
        return _plan_stripe_write_clean(
            layout, stripe_units, written, ArrayMode.FAULT_FREE, None
        )
    if failed_data_position in written:
        # Lost unit is being overwritten: forced large write — read every
        # untouched data unit (all survive), fold in the new data, write
        # survivors + parity.
        reads.extend(
            UnitOp(*stripe_units.data[p], False)
            for p in range(dps)
            if p not in written
        )
        writes.extend(check_writes)
    else:
        # Lost unit is untouched: forced small write — its old value is
        # unreadable, but the parity delta needs only old data of written
        # units plus old parity, all of which survive.
        reads.extend(
            UnitOp(*stripe_units.data[p], False) for p in sorted(written)
        )
        reads.extend(UnitOp(*a, False) for a in stripe_units.check)
        writes.extend(check_writes)
        if m == dps:  # unreachable guard: failed unit would be in `written`
            raise MappingError("inconsistent degraded write planning")
    return reads, writes


def _dedupe(plan: AccessPlan) -> AccessPlan:
    """Drop duplicate operations within each phase, preserving order."""
    phases: List[List[UnitOp]] = []
    for phase in plan.phases:
        if len(phase) < 2:
            phases.append(phase)
            continue
        seen: Set[UnitOp] = set()
        unique: List[UnitOp] = []
        for op in phase:
            if op not in seen:
                seen.add(op)
                unique.append(op)
        phases.append(unique)
    return AccessPlan(phases=phases)
