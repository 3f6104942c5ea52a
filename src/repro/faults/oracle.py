"""Shadow-content integrity oracle: did the array silently corrupt data?

The simulator never models byte contents, so "corruption" needs a proxy
that is cheap, exact, and layout-independent.  The proxy is a
**generation counter** per logical data unit: every committed client
write bumps the written units to fresh generations, and a stripe's
parity is modeled as the *sum* of its data units' generations — sums
compose under read-modify-write deltas exactly like XOR parity composes
under data deltas, so parity-consistency questions about real arrays map
one-to-one onto integer identities here.

Two cooperating models live in this module:

:class:`IntegrityOracle`
    The *online* oracle a simulation attaches to an
    :class:`~repro.array.controller.ArrayController`.  It observes write
    begin/commit, crash-torn writes, on-the-fly reconstructions, rebuild
    steps, and resync repairs, and counts **silent corruption events**:
    any time the array serves or rebuilds data through a parity chain
    that a torn write left untrustworthy.  It is deliberately
    conservative at crash time (every stripe a torn write touched is
    suspect until resynced — a delta-based small write over garbage
    parity yields garbage parity, so completion alone never clears
    suspicion); campaigns and lifecycle runs check
    ``verify()["corruption_events"] == 0`` after every trial.

:class:`StripeParityModel`
    The *pure* per-operation shadow used by the crash property tests: it
    executes :class:`~repro.array.raidops.AccessPlan` write operations
    one at a time against explicit stored-generation state, so a crash
    can be placed at any phase boundary (or inside a phase, after any
    subset of its operations) and parity consistency checked exactly.
    The resync semantics it replays are shared with the simulator via
    :func:`repro.array.resync.classify_stripe`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.array.raidops import (
    AccessPlan,
    ArrayMode,
    RebuiltPredicate,
    plan_access,
)
from repro.errors import SimulationError
from repro.layouts.base import Layout

#: Per-oracle cap on retained corruption detail records (counters are
#: exact regardless).
_MAX_DETAIL = 32


class IntegrityOracle:
    """Online write-hole detector for one simulated array."""

    def __init__(self, layout: Layout):
        self.layout = layout
        self._next_gen = 0
        #: unit -> generation physically on disk (committed writes only).
        self.stored: Dict[int, int] = {}
        #: unit -> last generation the client was *acknowledged*.
        self.committed: Dict[int, int] = {}
        #: access_id -> {unit: new generation} for in-flight writes.
        self._pending: Dict[int, Dict[int, int]] = {}
        #: stripes whose parity a torn write may have left inconsistent.
        self.suspect: Set[int] = set()
        self.writes_begun = 0
        self.writes_committed = 0
        self.torn_writes = 0
        self.reconstructed_reads = 0
        self.rebuild_checks = 0
        self.escalation_checks = 0
        self.resynced_stripes = 0
        self.corruption_count = 0
        self.corruption_detail: List[dict] = []
        #: Disk-originated corruption (lost/misdirected writes, bit rot)
        #: classified per kind: detected-and-repaired consumptions are
        #: the checksum defense working; silent ones served garbage.
        self.disk_corruption_detected: Dict[str, int] = {}
        self.disk_corruption_silent: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Write lifecycle (controller hooks).
    # ------------------------------------------------------------------

    def begin_write(
        self, access_id: int, first_unit: int, unit_count: int
    ) -> None:
        gens: Dict[int, int] = {}
        gen = self._next_gen
        for unit in range(first_unit, first_unit + unit_count):
            gen += 1
            gens[unit] = gen
        self._next_gen = gen
        self._pending[access_id] = gens
        self.writes_begun += 1

    def commit_write(self, access_id: int) -> None:
        gens = self._pending.pop(access_id, None)
        if gens is None:
            return
        self.stored.update(gens)
        self.committed.update(gens)
        self.writes_committed += 1

    def tear_write(self, access_id: int) -> None:
        """A crash interrupted this write mid-plan: its stripes are
        suspect until resync recomputes their parity from data.  The
        client never saw a completion, so old *or* new data is an
        acceptable outcome per unit — only the parity chain is at risk.
        """
        gens = self._pending.pop(access_id, None)
        if gens is None:
            return
        self.torn_writes += 1
        stripe_of = self.layout.stripe_of_data_unit
        for unit in gens:
            self.suspect.add(stripe_of(unit))

    # ------------------------------------------------------------------
    # Danger-path checks.
    # ------------------------------------------------------------------

    def check_reconstructed_read(self, unit: int) -> None:
        """A degraded read is reconstructing ``unit`` from survivors +
        parity right now; garbage parity means garbage data served as
        good — the silent corruption this oracle exists to catch."""
        self.reconstructed_reads += 1
        stripe = self.layout.stripe_of_data_unit(unit)
        if stripe in self.suspect:
            self._corrupt("reconstructed-read", stripe=stripe, unit=unit)

    def check_rebuild_step(self, stripe: int, lost_is_data: bool) -> None:
        """A rebuild step regenerated a lost unit of ``stripe``.  A lost
        *data* unit is rebuilt from parity, so untrustworthy parity is
        written back as if it were the data — silent and persistent.  A
        lost *parity* unit is recomputed from data alone, which is safe
        (and in fact repairs the stripe)."""
        self.rebuild_checks += 1
        if not lost_is_data:
            self.note_resync(stripe, count=False)
            return
        if stripe in self.suspect:
            self._corrupt("rebuild", stripe=stripe)

    def check_escalated_reconstruction(self, stripe: int) -> None:
        """Transient-error escalation rebuilt a sector from its stripe."""
        self.escalation_checks += 1
        if stripe in self.suspect:
            self._corrupt("escalated-reconstruction", stripe=stripe)

    def note_disk_corruption(self, kind: str, detected: bool) -> None:
        """A corrupt cell (disk-originated, not a write hole) was
        consumed by a read.  ``detected`` means the checksum/version
        defense caught it before delivery and repair is under way —
        that is the defense working as designed.  An undetected
        consumption served garbage as good data: a silent corruption
        event, counted with the write-hole events in
        ``corruption_events``."""
        if detected:
            self.disk_corruption_detected[kind] = (
                self.disk_corruption_detected.get(kind, 0) + 1
            )
        else:
            self.disk_corruption_silent[kind] = (
                self.disk_corruption_silent.get(kind, 0) + 1
            )
            self._corrupt("disk-" + kind)

    def note_resync(self, stripe: int, count: bool = True) -> None:
        """Resync recomputed (or rebuild regenerated) this stripe's
        parity from its data: the write hole is closed for it."""
        if count:
            self.resynced_stripes += 1
        self.suspect.discard(stripe)

    def _corrupt(self, kind: str, **detail) -> None:
        self.corruption_count += 1
        if len(self.corruption_detail) < _MAX_DETAIL:
            record = {"kind": kind}
            record.update(detail)
            self.corruption_detail.append(record)

    # ------------------------------------------------------------------
    # End-of-trial verification.
    # ------------------------------------------------------------------

    def verify(self, failed_disk: Optional[int] = None) -> dict:
        """The per-trial integrity report (checked after every trial).

        ``corruption_events`` must be zero for a trial to be silently
        consistent.  ``at_risk_stripes`` counts suspect stripes whose
        parity chain currently includes ``failed_disk`` — not yet a
        served corruption, but one degraded read away from it.
        """
        at_risk = 0
        if failed_disk is not None and self.suspect:
            for stripe in self.suspect:
                units = self.layout.stripe_units(stripe)
                if any(a.disk == failed_disk for a in units.all_units()):
                    at_risk += 1
        report = {
            "writes_begun": self.writes_begun,
            "writes_committed": self.writes_committed,
            "torn_writes": self.torn_writes,
            "reconstructed_reads": self.reconstructed_reads,
            "rebuild_checks": self.rebuild_checks,
            "escalation_checks": self.escalation_checks,
            "resynced_stripes": self.resynced_stripes,
            "suspect_stripes": len(self.suspect),
            "at_risk_stripes": at_risk,
            "corruption_events": self.corruption_count,
            "corruption_detail": list(self.corruption_detail),
        }
        # Disk-corruption classification appears only when such events
        # occurred, so reports from corruption-free runs (and their
        # pinned baselines) are byte-identical to pre-defense ones.
        if self.disk_corruption_detected or self.disk_corruption_silent:
            report["disk_corruption"] = {
                "detected_and_repaired": dict(
                    sorted(self.disk_corruption_detected.items())
                ),
                "silent": dict(sorted(self.disk_corruption_silent.items())),
            }
        return report


# ----------------------------------------------------------------------
# Pure per-operation shadow model (property tests, resync unit tests).
# ----------------------------------------------------------------------


class StripeParityModel:
    """Omniscient stored-state shadow of one array's data and parity.

    ``stored[unit]`` is the generation physically on disk for a logical
    data unit (0 if never written); ``parity[stripe]`` is the value
    physically in the stripe's check cell (0 initially — the sum of the
    all-zero initial generations, so a fresh array is consistent).

    >>> from repro.layouts import make_layout
    >>> model = StripeParityModel(make_layout("raid5", 5, 5))
    >>> write = model.plan_write(0, 4)
    >>> write.apply_all(); model.is_consistent(0)
    True
    """

    def __init__(self, layout: Layout):
        self.layout = layout
        self.stored: Dict[int, int] = {}
        self.parity: Dict[int, int] = {}
        self._next_gen = 0

    def expected_parity(self, stripe: int) -> int:
        stored = self.stored
        return sum(
            stored.get(unit, 0)
            for unit in self.layout.data_units_of_stripe(stripe)
        )

    def is_consistent(self, stripe: int) -> bool:
        """Does the stored parity satisfy the parity equation?"""
        return self.parity.get(stripe, 0) == self.expected_parity(stripe)

    def resync(self, stripe: int) -> None:
        """Recompute parity from stored data (what resync's read-all +
        rewrite-parity does); consistent by construction afterwards."""
        self.parity[stripe] = self.expected_parity(stripe)

    def reconstruct(self, stripe: int, unit: int) -> int:
        """The value a degraded read would regenerate for ``unit`` from
        parity minus the surviving data — equals ``stored[unit]`` iff
        the stripe is consistent."""
        others = sum(
            self.stored.get(u, 0)
            for u in self.layout.data_units_of_stripe(stripe)
            if u != unit
        )
        return self.parity.get(stripe, 0) - others

    def plan_write(
        self,
        first_unit: int,
        unit_count: int,
        mode: ArrayMode = ArrayMode.FAULT_FREE,
        failed_disk: Optional[int] = None,
        rebuilt: Optional[RebuiltPredicate] = None,
    ) -> "PlannedWrite":
        """Plan a client write against the current stored state."""
        return PlannedWrite(
            self, first_unit, unit_count, mode, failed_disk, rebuilt
        )


class PlannedWrite:
    """One write plan plus the physical meaning of each of its writes.

    ``apply_ops`` executes any subset of the plan's operations against
    the model — the crash property tests use this to tear the plan at
    every phase boundary and after arbitrary partial phases.
    """

    def __init__(
        self,
        model: StripeParityModel,
        first_unit: int,
        unit_count: int,
        mode: ArrayMode,
        failed_disk: Optional[int],
        rebuilt: Optional[RebuiltPredicate],
    ):
        layout = model.layout
        self.model = model
        self.plan: AccessPlan = plan_access(
            layout,
            first_unit,
            unit_count,
            True,
            mode=mode,
            failed_disk=failed_disk,
            rebuilt=rebuilt,
        )
        units = range(first_unit, first_unit + unit_count)
        gen = model._next_gen
        self.new_gens: Dict[int, int] = {}
        for unit in units:
            gen += 1
            self.new_gens[unit] = gen
        model._next_gen = gen
        self.stripes: List[int] = sorted(
            {layout.stripe_of_data_unit(u) for u in units}
        )
        # Physical cell -> logical meaning, covering redirected (spare)
        # targets too, so any mode's write ops resolve.
        meanings: Dict[Tuple[int, int], Tuple[str, int]] = {}
        redirect = (
            failed_disk is not None and layout.has_sparing
        )
        for unit in units:
            addr = layout.data_unit_address(unit)
            meanings[(addr.disk, addr.offset)] = ("data", unit)
            if redirect and addr.disk == failed_disk:
                target = layout.relocation_target(addr)
                meanings[(target.disk, target.offset)] = ("data", unit)
        for stripe in self.stripes:
            for addr in layout.stripe_units(stripe).check:
                meanings[(addr.disk, addr.offset)] = ("parity", stripe)
                if redirect and addr.disk == failed_disk:
                    target = layout.relocation_target(addr)
                    meanings[(target.disk, target.offset)] = (
                        "parity",
                        stripe,
                    )
        self._meanings = meanings
        # Parity intent per stripe.  A plan that pre-reads the stripe's
        # check cell is delta-based (small / forced-small write): the
        # controller adds the written units' data delta to *whatever
        # parity it read* — faithfully propagating pre-existing garbage.
        # Plans that do not read parity recompute it from data.
        delta_stripes: Set[int] = set()
        if len(self.plan.phases) == 2:
            for op in self.plan.phases[0]:
                meaning = meanings.get((op.disk, op.offset))
                if meaning is not None and meaning[0] == "parity":
                    delta_stripes.add(meaning[1])
        self.planned_parity: Dict[int, int] = {}
        for stripe in self.stripes:
            if stripe in delta_stripes:
                delta = sum(
                    self.new_gens[u] - model.stored.get(u, 0)
                    for u in layout.data_units_of_stripe(stripe)
                    if u in self.new_gens
                )
                self.planned_parity[stripe] = (
                    model.parity.get(stripe, 0) + delta
                )
            else:
                self.planned_parity[stripe] = sum(
                    self.new_gens.get(u, model.stored.get(u, 0))
                    for u in layout.data_units_of_stripe(stripe)
                )

    def apply_ops(self, ops) -> None:
        """Execute write operations (reads are inert) against the model."""
        model = self.model
        for op in ops:
            if not op.is_write:
                continue
            meaning = self._meanings.get((op.disk, op.offset))
            if meaning is None:
                raise SimulationError(
                    f"write op {op} has no meaning in this plan"
                )
            kind, ident = meaning
            if kind == "data":
                model.stored[ident] = self.new_gens[ident]
            else:
                model.parity[ident] = self.planned_parity[ident]

    def apply_phases(self, count: int) -> None:
        """Execute the first ``count`` phases completely."""
        for phase in self.plan.phases[:count]:
            self.apply_ops(phase)

    def apply_all(self) -> None:
        self.apply_phases(len(self.plan.phases))
