"""The array controller: executes access plans on mechanical drives.

One :class:`DiskServer` per spindle owns a scheduler queue and serializes
service; the controller fans each logical access's current phase out to the
servers and advances to the next phase when all its operations complete.
Response time is measured from ``submit`` to final completion, matching the
paper's "average time elapsed from the moment a client requests a logical
access, to the moment the array completes the access".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.array.raidops import (
    AccessPlan,
    ArrayMode,
    RebuiltPredicate,
    plan_access,
    read_cells,
)
from repro.backoff import capped_exponential
from repro.disk.drive import DiskDrive, DiskRequest, TransientErrorModel
from repro.disk.hp2247 import SECTOR_BYTES, make_hp2247
from repro.disk.scheduler import Scheduler, make_scheduler
from repro.disk.stats import DiskOpClass, DiskStats
from repro.errors import ConfigurationError, SimulationError
from repro.layouts.address import PhysicalAddress, Role
from repro.layouts.base import Layout
from repro.sim.engine import SimulationEngine
from repro.sim.instrument import TraceRecorder, engine_snapshot

#: Access-id bases of background traffic, one block per kind.  Client ids
#: stay below the lowest base, and each kind owns the ids from its base up
#: to the next one (scrub, the last, up to ``1 << 46``), so two kinds
#: never share an id: equal ids on one disk would make
#: :meth:`DiskServer._service` count the second operation as *local*.
REBUILD_ID_BASE = 1 << 40  # reconstruction sweep steps
RESYNC_ID_BASE = 1 << 41  # post-crash parity recomputation
ESCALATION_ID_BASE = 1 << 42  # sector rebuilds once retries run out
HEDGE_ID_BASE = 1 << 43  # stripe-peer reads racing a slow primary
VERIFY_ID_BASE = 1 << 44  # write-verify read-backs and repair rewrites
SCRUB_ID_BASE = 1 << 45  # media and parity-audit scrubbing

#: Builds a :class:`DiskRequest` from one field tuple without the named
#: tuple's Python-level ``__new__`` (one per disk op).
_new = tuple.__new__


#: Transient-error recovery.  A failed operation is retried up to
#: ``RETRIES`` times with capped exponential backoff
#: (``RETRY_BACKOFF_BASE_MS * 2**(attempt-1)``, capped at
#: ``RETRY_BACKOFF_CAP_MS``).  When the budget is exhausted: client
#: reads escalate to on-the-fly reconstruction from the stripe's
#: surviving members (plus a repair rewrite of the bad sector); client
#: writes succeed via firmware sector remapping; background (raw)
#: operations give up and complete as-is — they never escalate, which
#: bounds recursion since escalation itself issues raw operations.
RETRIES = 3
RETRY_BACKOFF_BASE_MS = 1.0
RETRY_BACKOFF_CAP_MS = 50.0

#: Slow-disk detection.  Each completed operation updates its disk's
#: latency EWMA (weight ``EWMA_ALPHA``); once a disk has
#: ``DETECTOR_MIN_SAMPLES`` observations, its EWMA is compared to the
#: array-median EWMA.  ``DETECTOR_HYSTERESIS`` consecutive observations
#: above ``QUARANTINE_FACTOR`` x median quarantine the disk; as many
#: consecutive observations back at or below ``UNQUARANTINE_FACTOR`` x
#: median release it.
EWMA_ALPHA = 0.2
QUARANTINE_FACTOR = 3.0
UNQUARANTINE_FACTOR = 1.5
DETECTOR_MIN_SAMPLES = 8
DETECTOR_HYSTERESIS = 4


class SlowDiskDetector:
    """Per-disk latency EWMA vs. the array median, with hysteresis.

    Pure bookkeeping — it never touches the engine or reorders events,
    so attaching it cannot change simulation timing; only the hedging
    machinery *reads* its quarantine verdicts.
    """

    def __init__(self, n_disks: int):
        self.ewma: List[Optional[float]] = [None] * n_disks
        self.samples = [0] * n_disks
        self.quarantined = [False] * n_disks
        self._streak = [0] * n_disks
        self.quarantines = 0
        self.unquarantines = 0

    def observe(self, disk: int, latency_ms: float) -> None:
        """Fold one completed operation's issue-to-completion latency."""
        previous = self.ewma[disk]
        if previous is None:
            self.ewma[disk] = latency_ms
        else:
            self.ewma[disk] = previous + EWMA_ALPHA * (latency_ms - previous)
        self.samples[disk] += 1
        self._evaluate(disk)

    def _median_ewma(self) -> Optional[float]:
        values = sorted(
            ewma
            for disk, ewma in enumerate(self.ewma)
            if ewma is not None
            and self.samples[disk] >= DETECTOR_MIN_SAMPLES
        )
        if not values:
            return None
        mid = len(values) // 2
        if len(values) % 2:
            return values[mid]
        return 0.5 * (values[mid - 1] + values[mid])

    def _evaluate(self, disk: int) -> None:
        if self.samples[disk] < DETECTOR_MIN_SAMPLES:
            return
        median = self._median_ewma()
        if median is None or median <= 0.0:
            return
        ratio = self.ewma[disk] / median
        if not self.quarantined[disk]:
            if ratio > QUARANTINE_FACTOR:
                self._streak[disk] += 1
                if self._streak[disk] >= DETECTOR_HYSTERESIS:
                    self.quarantined[disk] = True
                    self._streak[disk] = 0
                    self.quarantines += 1
            else:
                self._streak[disk] = 0
        else:
            if ratio <= UNQUARANTINE_FACTOR:
                self._streak[disk] += 1
                if self._streak[disk] >= DETECTOR_HYSTERESIS:
                    self.quarantined[disk] = False
                    self._streak[disk] = 0
                    self.unquarantines += 1
            else:
                self._streak[disk] = 0

    def is_quarantined(self, disk: int) -> bool:
        return self.quarantined[disk]

    def report(self) -> dict:
        return {
            "quarantined": [
                disk
                for disk, flagged in enumerate(self.quarantined)
                if flagged
            ],
            "quarantines": self.quarantines,
            "unquarantines": self.unquarantines,
            "samples": list(self.samples),
        }


@dataclass
class IoRecoveryStats:
    """Counters for the transient-error recovery machinery.

    The hedge counters ride along but are emitted only on request
    (``include_hedges``): the base eight keys are pinned in committed
    bench baselines that predate hedging.  Those keys include
    ``timeouts``, always 0: no per-op deadline is enforced.
    """

    transient_failures: int = 0
    retries: int = 0
    remapped_writes: int = 0
    escalated_reads: int = 0
    repaired_sectors: int = 0
    escalation_failures: int = 0
    raw_give_ups: int = 0
    hedges_launched: int = 0
    hedges_won: int = 0
    hedges_lost: int = 0
    hedge_aborts: int = 0

    def to_dict(self, include_hedges: bool = False) -> dict:
        data = {
            "transient_failures": self.transient_failures,
            "timeouts": 0,
            "retries": self.retries,
            "remapped_writes": self.remapped_writes,
            "escalated_reads": self.escalated_reads,
            "repaired_sectors": self.repaired_sectors,
            "escalation_failures": self.escalation_failures,
            "raw_give_ups": self.raw_give_ups,
        }
        if include_hedges:
            data["hedges_launched"] = self.hedges_launched
            data["hedges_won"] = self.hedges_won
            data["hedges_lost"] = self.hedges_lost
            data["hedge_aborts"] = self.hedge_aborts
        return data


@dataclass
class ChecksumStats:
    """Counters for the end-to-end checksum/write-verify defenses.

    Emitted in :meth:`ArrayController.instrumentation_record` only when
    checksums or a corruption model are active, so pinned baselines that
    predate the defenses stay byte-identical.
    """

    validations: int = 0       # client read requests validated
    mismatches: int = 0        # corrupt cells caught by checksum/version
    demotions: int = 0         # client reads demoted to media-error repair
    repairs: int = 0           # corrupt cells rewritten from redundancy
    stale_rmw_detected: int = 0  # RMW pre-reads stopped before the delta
    verify_reads: int = 0      # write-verify read-back operations
    unrepairable: int = 0      # detected cells with no redundancy left

    def to_dict(self) -> dict:
        return {
            "validations": self.validations,
            "mismatches": self.mismatches,
            "demotions": self.demotions,
            "repairs": self.repairs,
            "stale_rmw_detected": self.stale_rmw_detected,
            "verify_reads": self.verify_reads,
            "unrepairable": self.unrepairable,
        }


class LogicalAccess(NamedTuple):
    """A client request: ``unit_count`` contiguous data units."""

    access_id: int
    first_unit: int
    unit_count: int
    is_write: bool


@dataclass(slots=True)
class _InFlight:
    access: LogicalAccess
    plan: AccessPlan
    submitted_ms: float
    on_complete: Callable[[LogicalAccess, float], None]
    phase: int = 0
    outstanding: int = 0
    #: Stripes a write touches — populated only when a journal or oracle
    #: is attached (the plain hot path never computes it).
    stripes: Optional[List[int]] = None
    #: Write-verify read-back already ran for this write access.
    verified: bool = False


#: Shared single-phase plan stub for the direct read path in
#: :meth:`ArrayController.submit`.  Such accesses dispatch their disk
#: requests directly (no per-access plan object is built); the stub only
#: exists so ``_advance`` sees a completed one-phase plan.  Never passed
#: to ``_launch_phase``.
_DIRECT_READ_PLAN = AccessPlan(phases=[[]])


class DiskServer:
    """One drive + queue + busy state, attached to the engine.

    Tracks its queue depth (queued + in service) with a high-water mark;
    when ``record_timelines`` is set, every depth change and service start
    is appended to ``queue_timeline`` / ``busy_timeline`` as ``(time_ms,
    value)`` pairs.  An attached :class:`TraceRecorder` sees every
    serviced request.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        drive: DiskDrive,
        scheduler: Scheduler,
        on_done: Callable[[int, DiskRequest, bool], None],
        disk_id: int = 0,
        record_timelines: bool = False,
    ):
        self.engine = engine
        self.drive = drive
        self.scheduler = scheduler
        self.stats = DiskStats()
        self.busy = False
        self.failed = False
        self.disk_id = disk_id
        self.queue_depth = 0
        self.queue_high_water = 0
        self.queue_timeline: Optional[List[tuple]] = (
            [] if record_timelines else None
        )
        self.busy_timeline: Optional[List[tuple]] = (
            [] if record_timelines else None
        )
        self.trace: Optional[TraceRecorder] = None
        self._on_done = on_done
        # The request in service (one at a time: `busy` gates the next
        # pop until its completion fires).  Stashing it here lets the
        # completion event be the *bound method itself* instead of a
        # fresh ``partial`` per operation.
        self._in_service: Optional[DiskRequest] = None
        self._in_service_failed = False
        # Bound once: the completion event of every op.
        self._completion = self._complete
        # Engine.schedule never changes identity for the server's
        # lifetime; one bound-method stash saves two attribute hops per
        # scheduled completion.  Same for the scheduler's deque (created
        # once, mutated in place) and its lone-pop policy flag, both
        # read on every submission.
        self._schedule = engine.schedule
        self._squeue = scheduler._queue
        self._direct_service = scheduler.pops_lone_item_fifo

    def submit(self, request: DiskRequest) -> None:
        if self.failed:
            raise SimulationError("request routed to a failed disk")
        depth = self.queue_depth + 1
        self.queue_depth = depth
        if depth > self.queue_high_water:
            self.queue_high_water = depth
        if self.queue_timeline is not None:
            self.queue_timeline.append((self.engine.now, depth))
        if self.busy:
            self.scheduler.push(request)
            return
        # Idle server, empty queue: every policy (bar LOOK, which keeps
        # sweep state) would pop this exact request straight back out —
        # skip the scheduler round trip and service it directly.  The
        # dominant case at moderate load.
        if self._squeue or not self._direct_service:
            self.scheduler.push(request)
            self._start_next()
            return
        self.busy = True
        self._service(request)

    def _start_next(self) -> None:
        # Callers check the queue is non-empty.
        request = self.scheduler.pop(self.drive.cylinder)
        if request is None:
            self.busy = False
            return
        self.busy = True
        self._service(request)

    def _service(self, request: DiskRequest) -> None:
        drive = self.drive
        now = self.engine.now
        record = drive.service(request, now)
        if self.trace is not None:
            self.trace.record(self.disk_id, now, request, record)
        # Inlined stats.record + classify_operation: one physical op
        # runs through here per service, and the call overhead alone is
        # measurable at hot-path event rates.  The record is a tuple —
        # unpacking beats six descriptor lookups.
        seek_ms, latency_ms, transfer_ms, cyl_changed, head_changed, failed = (
            record
        )
        stats = self.stats
        access_id = request.access_id
        local = stats.last_access_id == access_id
        stats.last_access_id = access_id
        if not local:
            op_class = DiskOpClass.NON_LOCAL_SEEK
        elif cyl_changed:
            op_class = DiskOpClass.CYLINDER_SWITCH
        elif head_changed:
            op_class = DiskOpClass.TRACK_SWITCH
        else:
            op_class = DiskOpClass.NO_SWITCH
        total_ms = seek_ms + latency_ms + transfer_ms
        stats.operations += 1
        stats.by_class[op_class] += 1
        stats.seek_ms += seek_ms
        stats.latency_ms += latency_ms
        stats.transfer_ms += transfer_ms
        stats.busy_ms += total_ms
        if self.busy_timeline is not None:
            self.busy_timeline.append((now, stats.busy_ms))
        self._in_service = request
        self._in_service_failed = failed
        self._schedule(total_ms, self._completion)

    def _complete(self) -> None:
        request = self._in_service
        self.queue_depth -= 1
        if self.queue_timeline is not None:
            self.queue_timeline.append((self.engine.now, self.queue_depth))
        self._on_done(self.disk_id, request, self._in_service_failed)
        # Empty-queue check here, not in pop(): every policy returns
        # None on an empty queue without touching its state.
        if self._squeue:
            self._start_next()
        else:
            self.busy = False

    def crash_reset(self) -> int:
        """Power loss: queued and in-service operations vanish.

        The engine's pending events are cleared separately (by the crash
        injector), so the in-service completion never fires; this drops
        the queue and busy state so a restarted controller starts clean.
        Returns the number of operations lost.
        """
        dropped = self.scheduler.clear()
        if self.busy:
            dropped += 1
        self.busy = False
        dropped_depth = self.queue_depth
        self.queue_depth = 0
        if dropped_depth and self.queue_timeline is not None:
            self.queue_timeline.append((self.engine.now, 0))
        return dropped


class ArrayController:
    """A simulated disk array.

    >>> from repro.sim.engine import SimulationEngine
    >>> from repro.layouts import make_layout
    >>> engine = SimulationEngine()
    >>> array = ArrayController(engine, make_layout("raid5", 13, 13))
    >>> array.addressable_data_units > 1_000_000
    True
    """

    def __init__(
        self,
        engine: SimulationEngine,
        layout: Layout,
        drive_factory: Callable[[], DiskDrive] = make_hp2247,
        scheduler_name: str = "sstf",
        scheduler_window: int = 20,
        stripe_unit_kb: int = 8,
        coalesce: bool = True,
        record_timelines: bool = False,
    ):
        if stripe_unit_kb < 1:
            raise ConfigurationError("stripe unit must be >= 1 KB")
        self.coalesce = coalesce
        self.engine = engine
        self.layout = layout
        # The mapping plans are made against.  Starts as ``layout``; after
        # a completed distributed-sparing rebuild survives a *second*
        # failure, it becomes a RelocatedView folding the finished
        # relocation in (see :meth:`relocate_and_fail`).
        self._plan_layout = layout
        self.stripe_unit_sectors = stripe_unit_kb * 1024 // SECTOR_BYTES
        self.mode = ArrayMode.FAULT_FREE
        self.failed_disk: Optional[int] = None
        #: Every disk that has ever failed, in failure order (history —
        #: a replaced spindle stays listed).
        self.failed_disks: List[int] = []
        self.data_loss_reason: Optional[str] = None
        self._rebuilt: Optional[RebuiltPredicate] = None
        self.servers: List[DiskServer] = []
        for disk_id in range(layout.n):
            drive = drive_factory()
            scheduler = make_scheduler(
                scheduler_name, drive.geometry, window=scheduler_window
            )
            self.servers.append(
                DiskServer(
                    engine,
                    drive,
                    scheduler,
                    self._op_done,
                    disk_id=disk_id,
                    record_timelines=record_timelines,
                )
            )
        units_per_disk = (
            self.servers[0].drive.geometry.total_sectors
            // self.stripe_unit_sectors
        )
        self.periods = units_per_disk // layout.period
        if self.periods < 1:
            raise ConfigurationError(
                "disk too small for one layout pattern"
            )
        self.addressable_data_units = (
            self.periods * layout.data_units_per_period
        )
        self._in_flight: Dict[int, _InFlight] = {}
        self._raw_callbacks: Dict[int, Callable[[], None]] = {}
        self._raw_counter = 0
        self.completed_accesses = 0
        #: Crash-consistency attachments — all default-off, so the plain
        #: hot path (and its byte-identical golden traces) never pays.
        self.journal = None  # StripeJournal
        self.oracle = None  # IntegrityOracle
        #: ``hook(access, phase, total_phases)`` fired between a plan's
        #: phases (crash injectors place surgical crashes here).
        self.on_phase_boundary: Optional[
            Callable[[LogicalAccess, int, int], None]
        ] = None
        #: Transient-error retries, installed by
        #: :meth:`enable_transient_errors`.
        self.retrying = False
        self.io_stats = IoRecoveryStats()
        self._op_attempts: Dict[Tuple[int, DiskRequest], int] = {}
        self._op_submitted: Dict[Tuple[int, DiskRequest], float] = {}
        self._escalations = 0
        self.crashes = 0
        self.torn_writes = 0
        #: Tail-tolerance attachments (default-off like the journal),
        #: installed by :meth:`enable_hedging`: per-op submit times are
        #: tracked while hedging is on.
        self.hedge_deferral_ms: Optional[float] = None
        self.slow_disk_detector: Optional[SlowDiskDetector] = None
        self._hedges: Dict[Tuple[int, DiskRequest], dict] = {}
        self._hedge_counter = 0
        #: Silent-corruption attachments (default-off like the journal):
        #: the corruption model injects lost/misdirected writes and bit
        #: rot; ``checksums`` arms per-stripe-unit checksum+write-version
        #: validation on every delivered read.
        self.corruption = None  # CorruptionModel
        self.checksums = False
        self.write_verify = False
        self.checksum_latency_ms = 0.0
        self.checksum_stats = ChecksumStats()
        self._verify_ops = 0
        self._checksum_escalated: set = set()

    # ------------------------------------------------------------------
    # Failure control.
    # ------------------------------------------------------------------

    @property
    def plan_layout(self):
        """The mapping accesses and rebuild sweeps are planned against."""
        return self._plan_layout

    def fail_disk(self, disk: int) -> None:
        """Enter degraded mode (rebuild not yet started).

        Operations already queued on the dying disk are allowed to
        complete (they were in flight when the failure struck); accesses
        planned before the failure that have not yet issued an operation
        to it simply drop that operation (see :meth:`_launch_phase`).
        """
        if not 0 <= disk < self.layout.n:
            raise ConfigurationError(f"no disk {disk}")
        if self.mode is not ArrayMode.FAULT_FREE:
            raise SimulationError(
                f"cannot fail disk {disk}: array already {self.mode.value}"
            )
        self.failed_disk = disk
        self.failed_disks.append(disk)
        self.servers[disk].failed = True
        self.mode = ArrayMode.DEGRADED

    def fail_subsequent_disk(self, disk: int) -> None:
        """A further disk dies while the array is already wounded.

        Only the server flag and the failure history change — the caller
        (the lifecycle) decides what the failure *means*: data loss, a
        survivable mid-rebuild hit (replacement spindle + requeued repair
        work), or a fresh degraded cycle after relocation.  ``failed_disk``
        keeps naming the disk the current repair cycle is about.
        """
        if not 0 <= disk < self.layout.n:
            raise ConfigurationError(f"no disk {disk}")
        if self.mode is ArrayMode.FAULT_FREE:
            raise SimulationError(
                "use fail_disk for the first failure of a healthy array"
            )
        if self.servers[disk].failed:
            raise SimulationError(f"disk {disk} is already failed")
        self.failed_disks.append(disk)
        self.servers[disk].failed = True

    def declare_data_loss(self, reason: str) -> None:
        """Some unit has no surviving or reconstructible copy: terminal.

        The array stops planning accesses (``plan_access`` raises) but the
        engine keeps draining in-flight operations, so the simulation ends
        cleanly rather than mid-seek.
        """
        if self.mode is ArrayMode.DATA_LOSS:
            return
        self.mode = ArrayMode.DATA_LOSS
        self.data_loss_reason = reason
        self._rebuilt = None

    def install_replacement(self) -> None:
        """A fresh spindle takes the failed disk's slot (no sparing).

        The slot becomes writable again so the rebuild sweep can fill it;
        access planning still treats the disk's *contents* as lost until
        the reconstruction frontier passes each cell.
        """
        if self.failed_disk is None:
            raise SimulationError("no failed disk to replace")
        self.servers[self.failed_disk].failed = False

    def install_replacement_for(self, disk: int) -> None:
        """A fresh spindle takes ``disk``'s slot (second-failure repair).

        Used when a mid-rebuild second failure is survivable: the first
        disk's repair cycle continues, and the second disk's slot becomes
        writable so requeued repair steps can fill it.
        """
        if not self.servers[disk].failed:
            raise SimulationError(f"disk {disk} has not failed")
        self.servers[disk].failed = False

    def relocate_and_fail(self, disk: int) -> None:
        """Fold the finished relocation into the mapping; ``disk`` fails.

        From post-reconstruction (distributed sparing, spare space spent)
        a new failure starts an ordinary degraded cycle — but against the
        *relocated* mapping, in which the first failed disk no longer
        exists and no spare space remains.  The follow-up rebuild must
        therefore target a replacement spindle.
        """
        from repro.layouts.relocated import RelocatedView

        if self.mode is not ArrayMode.POST_RECONSTRUCTION:
            raise SimulationError(
                "relocation is only complete in post-reconstruction mode,"
                f" not {self.mode.value}"
            )
        if self.failed_disk is None or disk == self.failed_disk:
            raise SimulationError(
                f"disk {disk} cannot fail again: it is the relocated disk"
            )
        if self.servers[disk].failed:
            raise SimulationError(f"disk {disk} is already failed")
        self._plan_layout = RelocatedView(self._plan_layout, self.failed_disk)
        self.failed_disk = disk
        self.failed_disks.append(disk)
        self.servers[disk].failed = True
        self._rebuilt = None
        self.mode = ArrayMode.DEGRADED

    def enter_reconstruction(self, rebuilt: RebuiltPredicate) -> None:
        """Enter reconstruction mode: a background rebuild sweep is live.

        ``rebuilt(offset)`` is the sweep's frontier — it must return True
        once the failed disk's cell at ``offset`` is safely rebuilt (into
        its spare cell, or onto a replacement spindle); new plans then
        read/write the rebuilt copy directly.
        """
        if self.mode is not ArrayMode.DEGRADED:
            raise SimulationError(
                f"reconstruction must start from degraded mode,"
                f" not {self.mode.value}"
            )
        self._rebuilt = rebuilt
        self.mode = ArrayMode.RECONSTRUCTION

    def resume_reconstruction(self, rebuilt: RebuiltPredicate) -> None:
        """Re-point the live rebuild frontier at a fresh sweep.

        A crash restart resumes an interrupted rebuild with a new
        reconstructor seeded from the old frontier; the mode stays
        RECONSTRUCTION throughout — only the predicate changes hands.
        """
        if self.mode is not ArrayMode.RECONSTRUCTION:
            raise SimulationError(
                f"no reconstruction to resume in {self.mode.value} mode"
            )
        self._rebuilt = rebuilt

    def finish_reconstruction(self) -> None:
        """The rebuild completed: every lost unit has a live copy again.

        With distributed sparing the array runs on in post-reconstruction
        mode (accesses redirected to spare cells); a replacement-disk
        rebuild restores the original mapping, so the array returns to
        fault-free planning.
        """
        if self.mode not in (ArrayMode.DEGRADED, ArrayMode.RECONSTRUCTION):
            raise SimulationError("no reconstruction in progress")
        self._rebuilt = None
        if self._plan_layout.has_sparing:
            self.mode = ArrayMode.POST_RECONSTRUCTION
        else:
            self.servers[self.failed_disk].failed = False
            self.failed_disk = None
            self.mode = ArrayMode.FAULT_FREE

    # ------------------------------------------------------------------
    # Crash consistency and transient-error recovery attachments.
    # ------------------------------------------------------------------

    def attach_journal(self, journal):
        """Log write-plan stripes in ``journal`` (NVRAM region log)."""
        self.journal = journal
        return journal

    def attach_oracle(self, oracle):
        """Check every access against ``oracle`` (integrity shadow)."""
        self.oracle = oracle
        return oracle

    def attach_corruption(self, model):
        """Draw disk-originated silent corruption from ``model``.

        An attached model with all-zero rates draws nothing and keeps
        results byte-identical (the model's determinism contract).
        Nothing detaches a model.
        """
        self.corruption = model
        self._select_completion()
        return model

    def enable_checksums(
        self,
        write_verify: bool = False,
        metadata_latency_ms: float = 0.0,
    ) -> None:
        """Arm per-stripe-unit checksum + write-version validation.

        Every delivered client read is validated against the metadata; a
        mismatch is demoted to a media error and repaired from the
        stripe's redundancy before the read completes.  RMW pre-reads
        get the same validation, which is what blocks parity pollution:
        stale old-data is caught *before* the old-data/old-parity
        subtraction.  ``write_verify`` adds a read-back of every written
        cell before the write acks (charged on the engine clock);
        ``metadata_latency_ms`` is the per-write metadata-persist cost,
        charged like the journal's NVRAM append.
        """
        if metadata_latency_ms < 0:
            raise ConfigurationError(
                f"negative checksum latency {metadata_latency_ms}"
            )
        self.checksums = True
        self.write_verify = write_verify
        self.checksum_latency_ms = metadata_latency_ms

    def enable_hedging(self, deferral_ms: float) -> None:
        """Install tail-tolerant hedged reads and the slow-disk detector.

        A client read that has not completed ``deferral_ms`` after issue
        is *hedged*: the controller launches the on-the-fly
        reconstruction path (reads of the other stripe members) and
        delivers whichever side finishes first, with cancel-the-loser
        accounting in :class:`IoRecoveryStats`.  Reads aimed at a disk
        the :class:`SlowDiskDetector` quarantined skip the deferral and
        hedge immediately.  Client reads leave the direct read path
        (hedges need the per-op submit times that path skips).
        """
        self.hedge_deferral_ms = deferral_ms
        self.slow_disk_detector = SlowDiskDetector(self.layout.n)
        self._select_completion()

    def _select_completion(self) -> None:
        """Put every server on the defended completion handler.

        Servers complete ops through the core :meth:`_op_done` until
        transient-error retries, hedging or a corruption model is
        installed; from then on through :meth:`_request_done`, which
        runs those steps and ends in the core.  Nothing uninstalls a
        defense.  The switch happens between events: an op issued under
        the core may complete under the defended handler, whose lookups
        tolerate ops they never saw (nemesis storms enable transient
        errors mid-run).
        """
        for server in self.servers:
            server._on_done = self._request_done

    def enable_transient_errors(self, rate: float, seed: object) -> None:
        """Inject seeded per-operation transient failures on every drive.

        Each disk draws from its own named stream
        (``"{seed}/transient-{disk}"``), so rates and outcomes are stable
        under array-size changes.  The retry budget (``RETRIES``) is
        installed alongside — injecting errors with no recovery path
        would just lose operations.
        """
        for disk_id, server in enumerate(self.servers):
            server.drive.transient_errors = TransientErrorModel(
                rate, f"{seed}/transient-{disk_id}"
            )
        self.retrying = True
        self._select_completion()

    def disable_transient_errors(self) -> None:
        """End an error storm: drives stop drawing transient failures.

        The retries stay installed — recovering an operation issued
        during the storm must still work after it passes.
        """
        for server in self.servers:
            server.drive.transient_errors = None

    def crash(self) -> dict:
        """Volatile controller state dies (power loss / controller panic).

        Every in-flight write becomes a torn write: its stripes may have
        some cells new and some old, so their parity is untrustworthy.
        Queued operations vanish with the disk servers' state.  What
        survives: the journal (NVRAM), media state, platter contents, and
        mode/failure bookkeeping (re-derived from config on a real
        restart).  The caller is responsible for
        ``engine.clear_pending()`` — events scheduled by *other* actors
        (client arrivals, fault timers) die in the same power loss.

        Returns ``{"accesses", "stripes", "dropped_ops"}`` — the torn
        write count, the omniscient sorted list of their stripes (ground
        truth for resync), and operations lost from queues.
        """
        layout = self._plan_layout
        torn_stripes: set = set()
        torn_accesses = 0
        for access_id, state in self._in_flight.items():
            access = state.access
            if not access.is_write:
                continue
            torn_accesses += 1
            if state.stripes is not None:
                torn_stripes.update(state.stripes)
            else:
                stripe_of = layout.stripe_of_data_unit
                torn_stripes.update(
                    stripe_of(u)
                    for u in range(
                        access.first_unit,
                        access.first_unit + access.unit_count,
                    )
                )
            if self.oracle is not None:
                self.oracle.tear_write(access_id)
        self._in_flight.clear()
        self._raw_callbacks.clear()
        self._op_attempts.clear()
        self._op_submitted.clear()
        self._hedges.clear()
        self._checksum_escalated.clear()
        dropped_ops = 0
        for server in self.servers:
            dropped_ops += server.crash_reset()
        self.crashes += 1
        self.torn_writes += torn_accesses
        return {
            "accesses": torn_accesses,
            "stripes": sorted(torn_stripes),
            "dropped_ops": dropped_ops,
        }

    # ------------------------------------------------------------------
    # Access submission.
    # ------------------------------------------------------------------

    def submit(
        self,
        access: LogicalAccess,
        on_complete: Callable[[LogicalAccess, float], None],
    ) -> None:
        """Plan and launch a logical access; ``on_complete(access,
        response_ms)`` fires when the last physical operation finishes."""
        # Reads skip plan_access and its argument checks: a non-empty
        # range inside the array is checked here for every access.
        first = access.first_unit
        if not 0 <= first < first + access.unit_count <= (
            self.addressable_data_units
        ):
            raise ConfigurationError(
                f"access outside the addressable range: {access}"
            )
        if access.access_id in self._in_flight:
            raise SimulationError(f"duplicate access id {access.access_id}")
        if self.mode is ArrayMode.DATA_LOSS:
            raise SimulationError(
                "the array has lost data"
                + (
                    f" ({self.data_loss_reason})"
                    if self.data_loss_reason
                    else ""
                )
                + "; no further accesses can be submitted"
            )
        if (
            not access.is_write
            and not self.retrying
            and self.hedge_deferral_ms is None
        ):
            # Direct read (the dominant hot path, in every mode): one
            # phase, no recovery bookkeeping.  The cells go straight to
            # the coalescer, skipping the plan/UnitOp/phase machinery;
            # read_cells is the planner's read phase, so the requests are
            # the ones _launch_phase would issue.
            access_id = access.access_id
            mode = self.mode
            requests = self._requests(
                read_cells(
                    self._plan_layout,
                    access.first_unit,
                    access.unit_count,
                    mode,
                    self.failed_disk,
                    self._rebuilt,
                ),
                False,
                access_id,
                0,
            )
            servers = self.servers
            if mode is not ArrayMode.FAULT_FREE:
                # Dropped as in _launch_phase: after a second failure, a
                # plan made against the first can name the second.
                requests = [
                    (disk, request)
                    for disk, request in requests
                    if not servers[disk].failed
                ]
            state = _InFlight(
                access, _DIRECT_READ_PLAN, self.engine.now, on_complete
            )
            state.outstanding = len(requests)
            self._in_flight[access_id] = state
            if self.oracle is not None:
                self._check_reconstructed_reads(access)
            if not requests:
                self._advance(state)
                return
            for disk, request in requests:
                servers[disk].submit(request)
            return
        plan = plan_access(
            self._plan_layout,
            access.first_unit,
            access.unit_count,
            access.is_write,
            mode=self.mode,
            failed_disk=self.failed_disk,
            rebuilt=self._rebuilt,
        )
        state = _InFlight(
            access=access,
            plan=plan,
            submitted_ms=self.engine.now,
            on_complete=on_complete,
        )
        journal = self.journal
        oracle = self.oracle
        if access.is_write and (journal is not None or oracle is not None):
            stripe_of = self._plan_layout.stripe_of_data_unit
            state.stripes = sorted(
                {
                    stripe_of(u)
                    for u in range(
                        access.first_unit,
                        access.first_unit + access.unit_count,
                    )
                }
            )
        self._in_flight[access.access_id] = state
        if oracle is not None:
            if access.is_write:
                oracle.begin_write(
                    access.access_id, access.first_unit, access.unit_count
                )
            else:
                self._check_reconstructed_reads(access)
        delay = 0.0
        if journal is not None and state.stripes is not None:
            # NVRAM append: the dirty marks land (and cost latency_ms)
            # before the first phase may touch a platter.
            journal.mark(state.stripes)
            delay += journal.latency_ms
        if access.is_write and self.checksums:
            # Checksum + write-version metadata persist, charged the
            # same way as the journal append.
            delay += self.checksum_latency_ms
        if delay > 0:
            self.engine.schedule(
                delay,
                partial(self._launch_journaled, access.access_id),
            )
            return
        self._launch_phase(state)

    def _check_reconstructed_reads(self, access: LogicalAccess) -> None:
        """Tell the oracle which units of a read are served by on-the-fly
        reconstruction through their parity chain: those on the failed
        disk that the rebuild frontier has not reached."""
        failed = self.failed_disk
        if failed is None or self.mode not in (
            ArrayMode.DEGRADED,
            ArrayMode.RECONSTRUCTION,
        ):
            return
        rebuilt = self._rebuilt
        address_of = self._plan_layout.data_unit_address
        for unit in range(
            access.first_unit, access.first_unit + access.unit_count
        ):
            addr = address_of(unit)
            if addr.disk == failed and not (
                rebuilt is not None and rebuilt(addr.offset)
            ):
                self.oracle.check_reconstructed_read(unit)

    def _launch_journaled(self, access_id: int) -> None:
        state = self._in_flight.get(access_id)
        if state is None:
            return  # crashed during the journal append window
        self._launch_phase(state)

    def _launch_phase(self, state: _InFlight) -> None:
        phase = state.plan.phases[state.phase]
        if not phase:
            self._advance(state)
            return
        requests = self._requests(
            phase, phase[0].is_write, state.access.access_id, state.phase
        )
        # A disk can fail *between* an access's phases: operations the
        # pre-failure plan aimed at the now-dead disk are dropped (the
        # controller of a real array would re-plan; response-time-wise the
        # access simply no longer waits on that spindle).
        live = [
            (disk, request)
            for disk, request in requests
            if not self.servers[disk].failed
        ]
        state.outstanding = len(live)
        if not live:
            self._advance(state)
            return
        hedging = self.hedge_deferral_ms is not None
        if hedging:
            now = self.engine.now
            for disk, request in live:
                self._op_submitted[(disk, request)] = now
        for disk, request in live:
            self.servers[disk].submit(request)
        if hedging:
            for disk, request in live:
                if not request.is_write:
                    self._arm_hedge(disk, request)

    def _requests(
        self, cells, is_write: bool, access_id: int, tag: int
    ) -> List[Tuple[int, DiskRequest]]:
        """The ``(disk, request)`` pairs of one phase of client I/O.

        ``cells`` are the phase's ``(disk, offset, ...)`` stripe units, all
        reads or all writes (every planned phase is one or the other).
        With coalescing on, RAIDframe-style: the cells are grouped by disk
        in first-seen order, each group's offsets sorted, and physically
        contiguous runs merged into one request; off, one request per cell
        in order.
        """
        sectors = self.stripe_unit_sectors
        if not self.coalesce or len(cells) == 1:
            return [
                (
                    cell[0],
                    _new(
                        DiskRequest,
                        (cell[1] * sectors, sectors, is_write, access_id, tag),
                    ),
                )
                for cell in cells
            ]
        by_disk: Dict[int, List[int]] = {}
        for cell in cells:
            disk = cell[0]
            offsets = by_disk.get(disk)
            if offsets is None:
                by_disk[disk] = [cell[1]]
            else:
                offsets.append(cell[1])
        requests = []
        append = requests.append
        for disk, offsets in by_disk.items():
            offsets.sort()
            # A sentinel past the last offset closes the final run.
            offsets.append(offsets[-1] + 2)
            run_start = previous = offsets[0]
            for offset in offsets:
                if offset > previous + 1:
                    fields = (
                        run_start * sectors,
                        (previous - run_start + 1) * sectors,
                        is_write,
                        access_id,
                        tag,
                    )
                    append((disk, _new(DiskRequest, fields)))
                    run_start = offset
                previous = offset
        return requests

    def submit_raw(
        self,
        disk: int,
        offset: int,
        is_write: bool,
        access_id: int,
        callback: Callable[[], None],
        tag: object = None,
    ) -> None:
        """Issue one background stripe-unit operation (rebuild traffic).

        ``callback`` fires on completion; ``access_id`` feeds the locality
        classification like any other traffic.
        """
        self._raw_counter += 1
        token = self._raw_counter
        self._raw_callbacks[token] = callback
        tag = ("raw", token, tag)
        sectors = self.stripe_unit_sectors
        request = _new(
            DiskRequest, (offset * sectors, sectors, is_write, access_id, tag)
        )
        if self.hedge_deferral_ms is not None:
            self._op_submitted[(disk, request)] = self.engine.now
        self.servers[disk].submit(request)

    # ------------------------------------------------------------------
    # Hedged reads (tail tolerance).
    # ------------------------------------------------------------------

    def _arm_hedge(self, disk: int, request: DiskRequest) -> None:
        """Watch one client read op: hedge it if it outlives the
        deferral timeout (immediately when the disk is quarantined)."""
        entry = {"state": "armed"}
        self._hedges[(disk, request)] = entry
        detector = self.slow_disk_detector
        if detector is not None and detector.is_quarantined(disk):
            self._launch_hedge(disk, request, entry)
            return
        self.engine.schedule(
            self.hedge_deferral_ms,
            partial(self._maybe_hedge, disk, request, entry),
        )

    def _maybe_hedge(
        self, disk: int, request: DiskRequest, entry: dict
    ) -> None:
        if entry["state"] != "armed":
            return  # the primary already completed (or a crash cleared it)
        if self._hedges.get((disk, request)) is not entry:
            return
        self._launch_hedge(disk, request, entry)

    def _stripe_peers(self, disk: int, offset: int):
        """The other members of ``(disk, offset)``'s stripe, or None
        when the stripe has no redundancy left to reconstruct from
        (a member is failed, or sits on a replacement disk's
        not-yet-rebuilt region, or the cell is spare space)."""
        layout = self._plan_layout
        info = layout.locate(disk, offset)
        if info.role is Role.SPARE:
            return None
        period, per_period, _, stripes = layout.stripe_table()
        cycle, index = divmod(info.stripe, per_period)
        shift = cycle * period
        data, check = stripes[index]
        failed_disk = self.failed_disk
        rebuilt = self._rebuilt
        members = []
        for member_disk, row in data + check:
            member_offset = row + shift
            if member_disk == disk and member_offset == offset:
                continue
            if self.servers[member_disk].failed:
                return None
            if (
                member_disk == failed_disk
                and rebuilt is not None
                and not rebuilt(member_offset)
            ):
                # Replacement spindle installed, but this cell has not
                # been reached by the rebuild frontier yet.
                return None
            members.append(PhysicalAddress(member_disk, member_offset))
        return members

    def _launch_hedge(
        self, disk: int, request: DiskRequest, entry: dict
    ) -> None:
        """Race the slow primary: read every other member of each unit's
        stripe and deliver the original op if reconstruction wins."""
        unit_sectors = self.stripe_unit_sectors
        first = request.lba // unit_sectors
        count = max(1, request.sectors // unit_sectors)
        plans = []
        for offset in range(first, first + count):
            members = self._stripe_peers(disk, offset)
            if not members:
                # No redundancy for some unit: the hedge cannot serve
                # this op, so the primary stays the only copy.
                self.io_stats.hedge_aborts += 1
                entry["state"] = "unhedgeable"
                return
            plans.append(members)
        entry["state"] = "hedged"
        self.io_stats.hedges_launched += 1
        self._hedge_counter += 1
        access_id = HEDGE_ID_BASE + self._hedge_counter
        pending = {"reads": sum(len(m) for m in plans)}

        def read_done() -> None:
            pending["reads"] -= 1
            if pending["reads"] == 0 and entry["state"] == "hedged":
                entry["state"] = "hedge-won"
                self.io_stats.hedges_won += 1
                self._deliver_hedged(request)

        for members in plans:
            for addr in members:
                self.submit_raw(
                    addr.disk,
                    addr.offset,
                    False,
                    access_id,
                    read_done,
                    tag="hedge-read",
                )

    def _deliver_hedged(self, request: DiskRequest) -> None:
        """The reconstruction side finished first: deliver the original
        op's completion (the primary's later arrival is swallowed)."""
        state = self._in_flight.get(request.access_id)
        if state is None:
            return  # the access crashed away mid-hedge
        state.outstanding -= 1
        if state.outstanding == 0:
            self._advance(state)

    # ------------------------------------------------------------------
    # Completion path (and transient-error recovery).
    # ------------------------------------------------------------------

    def _request_done(
        self, disk: int, request: DiskRequest, failed: bool
    ) -> None:
        if self.hedge_deferral_ms is not None:
            submitted = self._op_submitted.pop((disk, request), None)
        else:
            submitted = None
        if self.retrying:
            if failed:
                self.io_stats.transient_failures += 1
                if self._handle_failed_op(disk, request):
                    return  # a retry or escalation owns the op now
            elif self._op_attempts:
                self._op_attempts.pop((disk, request), None)
        if (
            self.slow_disk_detector is not None
            and not failed
            and submitted is not None
        ):
            self.slow_disk_detector.observe(
                disk, self.engine.now - submitted
            )
        if self._hedges:
            entry = self._hedges.pop((disk, request), None)
            if entry is not None:
                hedge_state = entry["state"]
                if hedge_state == "hedge-won":
                    return  # cancel the loser: the hedge already delivered
                if hedge_state == "hedged":
                    entry["state"] = "primary-won"
                    self.io_stats.hedges_lost += 1
                else:
                    entry["state"] = "done"
        if self.corruption is not None:
            if request.is_write:
                unit_sectors = self.stripe_unit_sectors
                self.corruption.note_write(
                    disk,
                    request.lba // unit_sectors,
                    max(1, request.sectors // unit_sectors),
                    self.engine.now,
                )
            elif self._check_read_corruption(disk, request):
                return  # demoted to a media error; repair redelivers
        self._op_done(disk, request, failed)

    def _op_done(self, disk: int, request: DiskRequest, failed: bool) -> None:
        """The core completion: wake a raw op's callback, or count the op
        against its access's phase barrier.  Servers call it directly
        while no defense is attached (see :meth:`_select_completion`)."""
        tag = request.tag
        if tag.__class__ is tuple:  # ("raw", token, subtag)
            callback = self._raw_callbacks.pop(tag[1], None)
            if callback is not None:
                callback()
            return
        state = self._in_flight.get(request.access_id)
        if state is None:
            return  # stray background traffic
        state.outstanding -= 1
        if state.outstanding == 0:
            self._advance(state)

    def _check_read_corruption(
        self, disk: int, request: DiskRequest
    ) -> bool:
        """Validate one completed read against the corruption map.

        Returns True when the completion is being withheld (the read was
        demoted to a media error and escalation owns redelivery).  With
        checksums off, corrupt cells are consumed as good data: each one
        is a silent-corruption event, and a write's pre-read over stale
        data additionally poisons the stripe's check cells (the RMW
        delta is computed from garbage).
        """
        corruption = self.corruption
        unit_sectors = self.stripe_unit_sectors
        tag = request.tag
        raw = isinstance(tag, tuple) and tag[0] == "raw"
        if raw and (not self.checksums or tag[2] == "scrub-read"):
            # Undefended background traffic: served corruption is only
            # counted where data reaches a consumer (client deliveries).
            # Scrub reads are exempt unconditionally — the audit
            # scrubber owns their accounting and repair.
            return False
        checksums = self.checksums
        first = request.lba // unit_sectors
        count = max(1, request.sectors // unit_sectors)
        hits = corruption.corrupt_cells(disk, first, count, self.engine.now)
        stats = self.checksum_stats
        if checksums and not raw:
            stats.validations += 1
        if not hits:
            if self._checksum_escalated:
                self._checksum_escalated.discard((disk, request))
            return False
        oracle = self.oracle
        if not checksums:
            # No defense: garbage is delivered as good data.
            for _offset, kind in hits:
                corruption.note_silent(kind)
                if oracle is not None:
                    oracle.note_disk_corruption(kind, detected=False)
            state = self._in_flight.get(request.access_id)
            if state is not None and state.access.is_write:
                self._pollute_parity(disk, [off for off, _ in hits])
            return False
        for _offset, kind in hits:
            stats.mismatches += 1
            corruption.note_detected(kind)
            if oracle is not None:
                oracle.note_disk_corruption(kind, detected=True)
        if raw:
            subtag = tag[2]
            if subtag == "verify-read":
                # Write-verify caught the mismatch at write time: the
                # controller still holds the new data, so the repair is
                # a plain rewrite (no reconstruction needed).
                for offset, _kind in hits:
                    self._verify_ops += 1
                    self.submit_raw(
                        disk,
                        offset,
                        True,
                        VERIFY_ID_BASE + self._verify_ops,
                        self._note_checksum_repair,
                        tag="verify-rewrite",
                    )
            return False
        state = self._in_flight.get(request.access_id)
        if state is not None and state.access.is_write:
            # Version cross-check before the old-data/old-parity
            # subtraction: the RMW delta is never computed from stale
            # cells (parity-pollution protection).
            stats.stale_rmw_detected += len(hits)
        key = (disk, request)
        if key in self._checksum_escalated:
            # Escalation already ran and could not repair everything
            # (no redundancy left): deliver rather than loop.
            self._checksum_escalated.discard(key)
            stats.unrepairable += len(hits)
            return False
        stats.demotions += 1
        self._checksum_escalated.add(key)
        self._escalate_read(disk, request)
        return True

    def _note_checksum_repair(self) -> None:
        self.checksum_stats.repairs += 1

    def _pollute_parity(self, disk: int, offsets: List[int]) -> None:
        """Stale pre-read data reached an RMW delta: the stripes' check
        cells now hold poisoned parity."""
        layout = self._plan_layout
        period, per_period, _, stripes = layout.stripe_table()
        corruption = self.corruption
        for offset in offsets:
            info = layout.locate(disk, offset)
            if info.role is Role.SPARE:
                continue
            cycle, index = divmod(info.stripe, per_period)
            for check_disk, row in stripes[index][1]:
                corruption.pollute(check_disk, row + cycle * period)

    def _handle_failed_op(self, disk: int, request: DiskRequest) -> bool:
        """Route one failed operation: retry, escalate, or give up.

        Returns True when recovery has taken ownership of the operation
        (its completion will be delivered later); False when the caller
        should deliver it now (budget exhausted, op deemed successful by
        remap/give-up).
        """
        key = (disk, request)
        attempt = self._op_attempts.get(key, 0) + 1
        if attempt <= RETRIES:
            self._op_attempts[key] = attempt
            self.io_stats.retries += 1
            delay = capped_exponential(
                attempt, RETRY_BACKOFF_BASE_MS, RETRY_BACKOFF_CAP_MS
            )
            self.engine.schedule(
                delay, partial(self._resubmit, disk, request)
            )
            return True
        self._op_attempts.pop(key, None)
        tag = request.tag
        if isinstance(tag, tuple) and tag[0] == "raw":
            # Background traffic never escalates (escalation itself is
            # raw traffic — this bound ends the recursion); the step
            # machinery above it owns any further recovery.
            self.io_stats.raw_give_ups += 1
            return False
        if request.is_write:
            # Firmware remaps the failing sector; the rewrite succeeds.
            self.io_stats.remapped_writes += 1
            return False
        self._escalate_read(disk, request)
        return True

    def _resubmit(self, disk: int, request: DiskRequest) -> None:
        server = self.servers[disk]
        if server.failed:
            # The disk died during the backoff: the op can never succeed.
            # Deliver it as dropped, mirroring _launch_phase's rule for
            # plans that predate a failure.
            self._op_attempts.pop((disk, request), None)
            self._request_done(disk, request, False)
            return
        if self.hedge_deferral_ms is not None:
            self._op_submitted[(disk, request)] = self.engine.now
        server.submit(request)

    def _escalate_read(self, disk: int, request: DiskRequest) -> None:
        """Retry budget exhausted on a client read: rebuild the sectors
        on the fly from each stripe's surviving members, rewrite the
        unreadable cells (repair), then deliver the original completion.
        """
        self.io_stats.escalated_reads += 1
        layout = self._plan_layout
        unit_sectors = self.stripe_unit_sectors
        first = request.lba // unit_sectors
        count = max(1, request.sectors // unit_sectors)
        pending = {"units": 0}

        def unit_done() -> None:
            pending["units"] -= 1
            if pending["units"] == 0:
                self._request_done(disk, request, False)

        for offset in range(first, first + count):
            info = layout.locate(disk, offset)
            if info.role is Role.SPARE:
                continue
            members = self._stripe_peers(disk, offset)
            if members is None:
                # Another member is on a failed disk, or on a replacement
                # the rebuild has not reached: no redundancy left to
                # rebuild this sector from right now.
                self.io_stats.escalation_failures += 1
                continue
            if self.oracle is not None:
                self.oracle.check_escalated_reconstruction(info.stripe)
            pending["units"] += 1
            self._reconstruct_sector(disk, offset, members, unit_done)
        if pending["units"] == 0:
            self._request_done(disk, request, False)

    def _reconstruct_sector(
        self,
        disk: int,
        offset: int,
        members: List,
        done: Callable[[], None],
    ) -> None:
        self._escalations += 1
        access_id = ESCALATION_ID_BASE + self._escalations
        remaining = {"reads": len(members)}

        def write_done() -> None:
            self.io_stats.repaired_sectors += 1
            done()

        def read_done() -> None:
            remaining["reads"] -= 1
            if remaining["reads"] == 0:
                self.submit_raw(
                    disk,
                    offset,
                    True,
                    access_id,
                    write_done,
                    tag="escalation-write",
                )

        for addr in members:
            self.submit_raw(
                addr.disk,
                addr.offset,
                False,
                access_id,
                read_done,
                tag="escalation-read",
            )

    def _advance(self, state: _InFlight) -> None:
        state.phase += 1
        if state.phase < len(state.plan.phases):
            hook = self.on_phase_boundary
            if hook is not None:
                hook(state.access, state.phase, len(state.plan.phases))
                if state.access.access_id not in self._in_flight:
                    return  # the hook crashed the controller
            self._launch_phase(state)
            return
        if (
            self.write_verify
            and state.access.is_write
            and not state.verified
            and self._launch_write_verify(state)
        ):
            return
        self._complete_access(state)

    def _launch_write_verify(self, state: _InFlight) -> bool:
        """Read back every cell the write touched before acking it.

        The read-backs are charged on the engine clock (the verify cost
        the bench sweeps quantify); a mismatch found by one is repaired
        by a plain rewrite in :meth:`_check_read_corruption` — the
        controller still holds the new data.  Returns False when there
        is nothing to verify (the access completes normally).
        """
        state.verified = True
        servers = self.servers
        writes = [
            op
            for op in state.plan.phases[-1]
            if op.is_write and not servers[op.disk].failed
        ]
        if not writes:
            return False
        stats = self.checksum_stats
        pending = {"reads": len(writes)}
        access_id = state.access.access_id

        def read_done() -> None:
            pending["reads"] -= 1
            if pending["reads"] == 0 and access_id in self._in_flight:
                self._complete_access(state)

        for op in writes:
            stats.verify_reads += 1
            self._verify_ops += 1
            self.submit_raw(
                op.disk,
                op.offset,
                False,
                VERIFY_ID_BASE + self._verify_ops,
                read_done,
                tag="verify-read",
            )
        return True

    def _complete_access(self, state: _InFlight) -> None:
        del self._in_flight[state.access.access_id]
        if self.journal is not None and state.stripes is not None:
            self.journal.clear(state.stripes)
        if self.oracle is not None and state.access.is_write:
            self.oracle.commit_write(state.access.access_id)
        self.completed_accesses += 1
        response = self.engine.now - state.submitted_ms
        state.on_complete(state.access, response)

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    def attach_trace(self, recorder: TraceRecorder) -> TraceRecorder:
        """Log every serviced physical operation into ``recorder``."""
        for server in self.servers:
            server.trace = recorder
        return recorder

    def instrumentation_record(
        self, include_timelines: bool = False
    ) -> dict:
        """Engine + per-disk counters as one JSON-able record.

        Per disk: operation count, time decomposition, queue-depth
        high-water, and drive-level counters; ``include_timelines`` adds
        the raw ``(time_ms, value)`` series when the controller was built
        with ``record_timelines=True``.
        """
        disks = []
        for server in self.servers:
            entry = {
                "operations": server.stats.operations,
                "busy_ms": server.stats.busy_ms,
                "seek_ms": server.stats.seek_ms,
                "latency_ms": server.stats.latency_ms,
                "transfer_ms": server.stats.transfer_ms,
                "queue_high_water": server.queue_high_water,
                "buffer_hits": server.drive.buffer_hits,
            }
            if include_timelines and server.queue_timeline is not None:
                entry["queue_timeline"] = [
                    [t, depth] for t, depth in server.queue_timeline
                ]
                entry["busy_timeline"] = [
                    [t, busy] for t, busy in server.busy_timeline
                ]
            disks.append(entry)
        record = {
            "engine": engine_snapshot(self.engine),
            "disks": disks,
            "max_queue_high_water": max(
                (d["queue_high_water"] for d in disks), default=0
            ),
            "completed_accesses": self.completed_accesses,
        }
        # Crash-consistency keys only appear when their feature is on, so
        # inactive-default runs stay byte-identical with existing caches.
        if self.journal is not None:
            record["journal"] = self.journal.to_dict()
        hedging = self.hedge_deferral_ms is not None
        if self.retrying or hedging:
            record["io_recovery"] = self.io_stats.to_dict(
                include_hedges=hedging
            )
        if self.slow_disk_detector is not None:
            record["slow_disks"] = self.slow_disk_detector.report()
        if self.crashes:
            record["crashes"] = {
                "count": self.crashes,
                "torn_writes": self.torn_writes,
            }
        if self.checksums or self.corruption is not None:
            block = {}
            if self.checksums:
                block["checksum"] = self.checksum_stats.to_dict()
            if self.corruption is not None:
                block["model"] = self.corruption.report()
            record["corruption"] = block
        return record

    def disk_stats(self) -> List[DiskStats]:
        return [server.stats for server in self.servers]

    def total_stats(self) -> DiskStats:
        total = DiskStats()
        for server in self.servers:
            total.merge(server.stats)
        return total
