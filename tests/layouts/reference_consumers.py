"""The stripe consumers as they were before they read the stripe tables,
kept as references.

Each function is the per-stripe implementation the simulator used when
``Layout.stripe_units`` served stripes one at a time and each lost cell's
spare came from its own ``relocation_target`` call.  The only changes
are that stripes now come from
``tests.layouts.reference_layout.stripe_units`` and each layout's
``relocation_target`` from its restatement there, imported as
``relocate`` (``multi_rebuild_plan`` always read the stripe table; its
reference keeps the ``locate`` per offset and the per-column
:func:`relocation_target`).
``tests/layouts/test_consumer_reference.py`` compares the table-driven
code in ``src/`` with these step for step.  Never edit a reference to
make it match.
"""

from __future__ import annotations

from typing import Container, Dict, Iterator, List, Optional, Tuple

from repro.array.raidops import RebuiltPredicate
from repro.core.multifailure import MultiRebuildStep
from repro.core.reconstruction import RebuildStep
from repro.errors import ConfigurationError, MappingError
from repro.layouts.address import PhysicalAddress, Role
from tests.layouts.reference_layout import pddl_row_context
from tests.layouts.reference_layout import relocation_target as relocate
from tests.layouts.reference_layout import stripe_units


def rebuild_plan(
    layout, failed_disk: int, rows: Optional[int] = None
) -> Iterator[RebuildStep]:
    """``repro.core.reconstruction.rebuild_plan``."""
    if not 0 <= failed_disk < layout.n:
        raise ConfigurationError(
            f"failed disk {failed_disk} outside 0..{layout.n - 1}"
        )
    if rows is None:
        rows = layout.period
    for offset in range(rows):
        info = layout.locate(failed_disk, offset)
        if info.role is Role.SPARE:
            continue
        units = stripe_units(layout, info.stripe)
        reads = [
            addr for addr in units.all_units() if addr.disk != failed_disk
        ]
        write = None
        if layout.has_sparing:
            write = relocate(
                layout, PhysicalAddress(failed_disk, offset)
            )
        yield RebuildStep(
            lost=PhysicalAddress(failed_disk, offset),
            stripe=info.stripe,
            reads=reads,
            write=write,
        )


def classify_stripe(
    layout,
    stripe: int,
    failed_disk: Optional[int],
    rebuilt: Optional[RebuiltPredicate] = None,
) -> str:
    """``repro.array.resync.classify_stripe``."""
    if failed_disk is None:
        return "recompute"
    units = stripe_units(layout, stripe)
    for addr in units.data:
        if addr.disk == failed_disk and not (
            rebuilt is not None and rebuilt(addr.offset)
        ):
            return "data_lost"
    for addr in units.check:
        if addr.disk == failed_disk and not (
            rebuilt is not None and rebuilt(addr.offset)
        ):
            return "parity_lost"
    return "recompute"


def live_address(
    layout,
    addr: PhysicalAddress,
    failed_disk: Optional[int],
    post_reconstruction: bool,
    rebuilt: Optional[RebuiltPredicate],
) -> PhysicalAddress:
    """``Resynchronizer._live_address``, with the controller's failed
    disk and mode passed in."""
    if addr.disk != failed_disk:
        return addr
    if post_reconstruction:
        return relocate(layout, addr)
    if rebuilt is not None and rebuilt(addr.offset):
        if layout.has_sparing:
            return relocate(layout, addr)
        return addr  # rebuilt onto the replacement spindle in place
    return addr


def resync_cells(
    layout,
    stripe: int,
    failed_disk: Optional[int],
    post_reconstruction: bool,
    rebuilt: Optional[RebuiltPredicate],
) -> Tuple[List[PhysicalAddress], List[PhysicalAddress]]:
    """The reads and writes ``Resynchronizer._run`` issues for one
    stripe."""
    units = stripe_units(layout, stripe)
    reads = [
        live_address(layout, a, failed_disk, post_reconstruction, rebuilt)
        for a in units.data
    ]
    writes = [
        live_address(layout, a, failed_disk, post_reconstruction, rebuilt)
        for a in units.check
    ]
    return reads, writes


def period_profile(layout, first_disk: int, second_disk: int):
    """``repro.faults.multifault._period_profile``."""
    period = layout.period
    sparing = layout.has_sparing
    is_spare: List[bool] = [False] * period
    touches: List[bool] = [False] * period
    target_disk: List[int] = [first_disk] * period
    target_offset: List[int] = list(range(period))
    for row in range(period):
        info = layout.locate(first_disk, row)
        if info.role is Role.SPARE:
            is_spare[row] = True
            continue
        members = stripe_units(layout, info.stripe).all_units()
        touches[row] = any(a.disk == second_disk for a in members)
        if sparing:
            target = relocate(
                layout, PhysicalAddress(first_disk, row)
            )
            target_disk[row] = target.disk
            target_offset[row] = target.offset
    return is_spare, touches, target_disk, target_offset


def second_failure_repair_steps(
    layout,
    first_disk: int,
    second_disk: int,
    relost_offsets: Tuple[int, ...],
    rebuilt: Container[int],
    rows: int,
) -> List[RebuildStep]:
    """``repro.faults.multifault.second_failure_repair_steps``."""
    outcome_domain = range(rows)
    relost_set = set(relost_offsets)
    steps: List[RebuildStep] = []
    sparing = layout.has_sparing
    for offset in sorted(relost_set):
        info = layout.locate(first_disk, offset)
        members = stripe_units(layout, info.stripe).all_units()
        reads = [
            a
            for a in members
            if a.disk != first_disk and a.disk != second_disk
        ]
        steps.append(
            RebuildStep(
                lost=PhysicalAddress(first_disk, offset),
                stripe=info.stripe,
                reads=reads,
                write=relocate(
                    layout, PhysicalAddress(first_disk, offset)
                ),
            )
        )
    for offset in outcome_domain:
        info = layout.locate(second_disk, offset)
        if info.role is Role.SPARE:
            continue
        members = stripe_units(layout, info.stripe).all_units()
        reads: List[PhysicalAddress] = []
        for addr in members:
            if addr.disk == second_disk:
                continue
            if addr.disk == first_disk:
                if sparing and addr.offset in rebuilt:
                    reads.append(relocate(layout, addr))
                else:
                    reads.append(addr)
            else:
                reads.append(addr)
        steps.append(
            RebuildStep(
                lost=PhysicalAddress(second_disk, offset),
                stripe=info.stripe,
                reads=reads,
                write=None,
            )
        )
    return steps


def stripe_peers(controller, disk: int, offset: int):
    """``ArrayController._stripe_peers``: the other members of ``(disk,
    offset)``'s stripe, or None when a member is on a failed server, on a
    replacement spindle the rebuild has not reached, or the cell is spare
    space."""
    layout = controller.plan_layout
    info = layout.locate(disk, offset)
    if info.role is Role.SPARE:
        return None
    failed_disk = controller.failed_disk
    rebuilt = controller._rebuilt
    members = []
    for a in stripe_units(layout, info.stripe).all_units():
        if a.disk == disk and a.offset == offset:
            continue
        if controller.servers[a.disk].failed:
            return None
        if (
            a.disk == failed_disk
            and rebuilt is not None
            and not rebuilt(a.offset)
        ):
            return None
        members.append(a)
    return members


def at_risk_stripes(layout, suspect, failed_disk: Optional[int]) -> int:
    """The at-risk count of ``IntegrityOracle.verify``."""
    at_risk = 0
    if failed_disk is not None and suspect:
        for stripe in suspect:
            units = stripe_units(layout, stripe)
            if any(a.disk == failed_disk for a in units.all_units()):
                at_risk += 1
    return at_risk


def polluted_cells(layout, disk: int, offsets) -> List[Tuple[int, int]]:
    """The check cells ``ArrayController._pollute_parity`` marks, in
    order."""
    cells = []
    for offset in offsets:
        info = layout.locate(disk, offset)
        if info.role is Role.SPARE:
            continue
        for check in stripe_units(layout, info.stripe).check:
            cells.append((check.disk, check.offset))
    return cells


def planned_write_meanings(
    layout, first_unit: int, unit_count: int, failed_disk: Optional[int]
):
    """``PlannedWrite``'s physical cell -> logical meaning map."""
    units = range(first_unit, first_unit + unit_count)
    stripes = sorted({layout.stripe_of_data_unit(u) for u in units})
    meanings = {}
    redirect = (
        failed_disk is not None and layout.has_sparing
    )
    for unit in units:
        addr = layout.data_unit_address(unit)
        meanings[(addr.disk, addr.offset)] = ("data", unit)
        if redirect and addr.disk == failed_disk:
            target = relocate(layout, addr)
            meanings[(target.disk, target.offset)] = ("data", unit)
    for stripe in stripes:
        for addr in stripe_units(layout, stripe).check:
            meanings[(addr.disk, addr.offset)] = ("parity", stripe)
            if redirect and addr.disk == failed_disk:
                target = relocate(layout, addr)
                meanings[(target.disk, target.offset)] = (
                    "parity",
                    stripe,
                )
    return meanings


def relocation_target(layout, addr: PhysicalAddress, spare_column: int):
    """``PDDLLayout.relocation_target(addr, spare_column=...)``: the spare
    cell of column ``spare_column`` in ``addr``'s row."""
    if layout.spares == 0:
        raise MappingError("this PDDL instance was built without spares")
    if not 0 <= spare_column < layout.spares:
        raise MappingError(
            f"spare column {spare_column} outside 0..{layout.spares - 1}"
        )
    row = addr.offset % layout.period
    perm, t = pddl_row_context(layout, row)
    if layout.locate(addr.disk, addr.offset).role is Role.SPARE:
        raise MappingError(f"{addr} is spare space; nothing to relocate")
    spare_disk = perm.disk_of_column(spare_column, t, layout.dev)
    return PhysicalAddress(spare_disk, addr.offset)


def multi_rebuild_plan(
    layout, failed_disks, rows: int = 0
) -> Iterator[MultiRebuildStep]:
    """``repro.core.multifailure.multi_rebuild_plan``: a ``locate`` per
    (offset, failed disk) pair and a :func:`relocation_target` per lost
    cell."""
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

    seen_stripes = set()
    for offset in range(rows):
        for disk in failures:
            info = layout.locate(disk, offset)
            if info.role is Role.SPARE or info.stripe in seen_stripes:
                continue
            seen_stripes.add(info.stripe)
            cycle, index = divmod(info.stripe, per_period)
            data, check = stripes[index]
            lost: Dict[PhysicalAddress, PhysicalAddress] = {}
            reads: List[PhysicalAddress] = []
            for member_disk, row in data + check:
                addr = PhysicalAddress(member_disk, row + cycle * period)
                if addr.disk in failed_set:
                    lost[addr] = relocation_target(
                        layout, addr, spare_of[addr.disk]
                    )
                else:
                    reads.append(addr)
            if len(reads) < layout.k - layout.checks:
                raise MappingError(
                    f"stripe {info.stripe} lost too many units to decode"
                )
            yield MultiRebuildStep(
                stripe=info.stripe, lost=lost, reads=reads
            )
