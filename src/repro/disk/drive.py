"""The mechanical drive service model.

A drive serves one request at a time: position the arm (full seek when the
cylinder changes, a head switch when only the head does), wait for the start
sector to rotate under the head, then transfer, paying a head switch per
track boundary and a cylinder switch when the transfer spills into the next
cylinder (ideal track skew assumed: no extra rotational wait after a
switch).  The platter spins continuously, so rotational latency is derived
from absolute time, which is what couples queueing order to service time and
makes SSTF matter.
"""

from __future__ import annotations

import random
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.disk.geometry import DiskGeometry
from repro.disk.seek import SeekModel
from repro.errors import ConfigurationError


class DiskRequest(NamedTuple):
    """One physical transfer: ``sectors`` blocks starting at ``lba``.

    ``access_id`` ties the request to its logical access (for the paper's
    local / non-local operation classification); ``tag`` is free for the
    array controller.
    """

    lba: int
    sectors: int
    is_write: bool
    access_id: int
    tag: object = None


class ServiceRecord(NamedTuple):
    """Timing decomposition of one serviced request.

    ``failed`` marks a *transient* I/O error: the drive spent the full
    mechanical time (arm moved, transfer attempted) but the operation did
    not succeed — a retry of the same sector usually will.  Distinct from
    the persistent :class:`~repro.faults.media.MediaErrorMap` errors,
    which never heal without a rewrite.

    (A named tuple, not a dataclass: one is built per physical
    operation, and tuple construction is several times cheaper than a
    frozen dataclass ``__init__`` — measurable on the hot path.)
    """

    seek_ms: float
    latency_ms: float
    transfer_ms: float
    cylinder_changed: bool
    head_changed: bool
    failed: bool = False

    @property
    def total_ms(self) -> float:
        return self.seek_ms + self.latency_ms + self.transfer_ms


#: Builds a :class:`ServiceRecord` from one field tuple without the named
#: tuple's Python-level ``__new__`` (one per serviced op).
_new = tuple.__new__


class TransientErrorModel:
    """Seeded per-operation transient-failure draws for one drive.

    Each mechanical service draws once from the drive's named stream;
    with probability ``rate`` the operation fails transiently.  A zero
    rate consumes no randomness, so attaching an inactive model leaves
    simulations byte-identical.
    """

    def __init__(self, rate: float, seed: object):
        if not 0.0 <= rate < 1.0:
            raise ConfigurationError(
                f"transient error rate must be in [0, 1), got {rate}"
            )
        self.rate = rate
        self._rng = random.Random(seed)
        self.draws = 0
        self.injected = 0

    def draw(self) -> bool:
        if self.rate <= 0.0:
            return False
        self.draws += 1
        if self._rng.random() < self.rate:
            self.injected += 1
            return True
        return False


class ServiceTables:
    """Precomputed service arithmetic, shared per drive *model*.

    The mechanical constants (geometry, seek curve, spin rate, switch
    times) are per-model, not per-spindle, so every table here is built
    once and shared by all drives of an array — and across arrays, and
    across Monte-Carlo trials in one process:

    - ``seek_by_distance``: the seek curve flattened to one list indexed
      by cylinder distance, built from :meth:`SeekModel.seek_time`;
    - ``angle_by_spt``: per zone density, the rotation angle of each
      sector start (``(sector / spt) * rev``);
    - ``transfer``: ``(lba, sectors) -> (start_cyl, start_head,
      target_angle, transfer_ms, end_cyl, end_head)``.  Transfer time
      and final arm position depend only on the start address and
      length — never on the clock or previous arm state — so the
      track-crossing walk runs once per distinct request shape and is
      a dict hit forever after.

    Nothing here depends on drive *state*; :class:`DiskDrive.service`
    combines a table entry with the arm position and clock.
    ``tests/disk/test_service_tables.py`` pins every seek and angle entry
    to its scalar definition and :meth:`DiskDrive.service` to
    :meth:`DiskDrive.service_reference` over random request sequences.
    """

    _shared: Dict[tuple, "ServiceTables"] = {}

    def __init__(
        self,
        geometry: DiskGeometry,
        seek_model: SeekModel,
        revolution_ms: float,
        head_switch_ms: float,
        cylinder_switch_ms: float,
    ):
        self.geometry = geometry
        self.revolution_ms = revolution_ms
        self.head_switch_ms = head_switch_ms
        self.cylinder_switch_ms = cylinder_switch_ms
        self.seek_by_distance: List[float] = [
            seek_model.seek_time(d) for d in range(seek_model.cylinders)
        ]
        self.angle_by_spt: Dict[int, List[float]] = {
            spt: [(sector / spt) * revolution_ms for sector in range(spt)]
            for spt in (zone.sectors_per_track for zone in geometry.zones)
        }
        self.transfer: Dict[
            Tuple[int, int], Tuple[int, int, float, float, int, int]
        ] = {}

    @classmethod
    def shared(
        cls,
        geometry: DiskGeometry,
        seek_model: SeekModel,
        revolution_ms: float,
        head_switch_ms: float,
        cylinder_switch_ms: float,
    ) -> "ServiceTables":
        """The one table set for this drive model (keyed by identity of
        the immutable geometry/seek objects plus the scalar constants)."""
        key = (
            id(geometry),
            id(seek_model),
            revolution_ms,
            head_switch_ms,
            cylinder_switch_ms,
        )
        tables = cls._shared.get(key)
        if tables is None:
            tables = cls(
                geometry,
                seek_model,
                revolution_ms,
                head_switch_ms,
                cylinder_switch_ms,
            )
            # The instance holds strong refs to geometry/seek_model, so
            # the ids in the key stay pinned while the entry lives.
            cls._shared[key] = tables
        return tables

    def entry(
        self, lba: int, sectors: int
    ) -> Tuple[int, int, float, float, int, int]:
        """The transfer-table entry for ``(lba, sectors)``, computing and
        caching it on first use (the exact reference walk)."""
        geometry = self.geometry
        cylinder, head, sector = geometry.lba_to_chs(lba)
        spt_of = geometry.sectors_per_track
        spt = spt_of(cylinder)
        target_angle = self.angle_by_spt[spt][sector]
        rev = self.revolution_ms
        transfer_ms = 0.0
        remaining = sectors
        heads = geometry.heads
        end_cylinder, end_head = cylinder, head
        while remaining > 0:
            chunk = spt - sector
            if remaining < chunk:
                chunk = remaining
            transfer_ms += chunk * rev / spt
            remaining -= chunk
            sector += chunk
            if remaining > 0:
                sector = 0
                end_head += 1
                if end_head == heads:
                    end_head = 0
                    end_cylinder += 1
                    transfer_ms += self.cylinder_switch_ms
                    spt = spt_of(end_cylinder)
                else:
                    transfer_ms += self.head_switch_ms
        entry = (
            cylinder,
            head,
            target_angle,
            transfer_ms,
            end_cylinder,
            end_head,
        )
        self.transfer[(lba, sectors)] = entry
        return entry


class DiskDrive:
    """Stateful mechanical model of one spindle.

    >>> from repro.disk.hp2247 import make_hp2247
    >>> drive = make_hp2247()
    >>> rec = drive.service(DiskRequest(0, 16, False, access_id=0), now_ms=0.0)
    >>> rec.total_ms > 0
    True
    """

    def __init__(
        self,
        geometry: DiskGeometry,
        seek_model: SeekModel,
        rpm: float,
        head_switch_ms: float,
        cylinder_switch_ms: float,
        track_buffer: bool = False,
        buffer_hit_ms: float = 0.2,
    ):
        if seek_model.cylinders != geometry.cylinders:
            raise ConfigurationError(
                "seek model and geometry disagree on cylinder count"
            )
        if rpm <= 0:
            raise ConfigurationError(f"rpm must be positive, got {rpm}")
        if buffer_hit_ms < 0:
            raise ConfigurationError("buffer hit time must be >= 0")
        self.geometry = geometry
        self.seek_model = seek_model
        self.revolution_ms = 60_000.0 / rpm
        self.head_switch_ms = head_switch_ms
        self.cylinder_switch_ms = cylinder_switch_ms
        self.track_buffer = track_buffer
        self.buffer_hit_ms = buffer_hit_ms
        self.cylinder = 0
        self.head = 0
        self._buffered_track = None  # (cylinder, head) of the cached track
        self.buffer_hits = 0
        #: Optional transient-failure injection; None (the default) draws
        #: nothing and keeps service byte-identical to an error-free drive.
        self.transient_errors: Optional[TransientErrorModel] = None
        #: Optional fail-slow (gray failure) inflation, duck-typed to
        #: :class:`repro.faults.failslow.FailSlowModel`; None (the
        #: default) leaves every service computation untouched.
        self.fail_slow = None
        #: Precomputed per-model service tables, shared across spindles.
        self.tables = ServiceTables.shared(
            geometry,
            seek_model,
            self.revolution_ms,
            head_switch_ms,
            cylinder_switch_ms,
        )

    def reset(self) -> None:
        self.cylinder = 0
        self.head = 0
        self._buffered_track = None
        self.buffer_hits = 0

    def service(self, request: DiskRequest, now_ms: float) -> ServiceRecord:
        """Serve ``request`` starting at absolute time ``now_ms``.

        Returns the timing decomposition and leaves the arm at the final
        track.  The caller (simulation engine) owns queueing; this method
        assumes the drive is idle.

        Table-backed hot path: the request's state-independent arithmetic
        (start/end position, rotation target angle, transfer walk) comes
        from the shared :class:`ServiceTables`; only the seek distance
        and the rotational wait — the parts coupled to arm position and
        absolute time — are computed here.  Bit-identical to
        :meth:`service_reference`, which remains the authority (and
        serves the track-buffer configuration, whose hit test needs the
        per-request CHS walk anyway).
        """
        if self.track_buffer:
            return self.service_reference(request, now_ms)
        sectors = request.sectors
        if sectors < 1:
            raise ConfigurationError(f"empty transfer: {request}")
        tables = self.tables
        key = (request.lba, sectors)
        entry = tables.transfer.get(key)
        if entry is None:
            entry = tables.entry(request.lba, sectors)
        cylinder, head, target_angle, transfer_ms, end_cyl, end_head = entry
        arm = self.cylinder
        head_changed = head != self.head
        if cylinder != arm:
            cylinder_changed = True
            distance = cylinder - arm if cylinder > arm else arm - cylinder
            seek_ms = tables.seek_by_distance[distance]
        else:
            cylinder_changed = False
            seek_ms = self.head_switch_ms if head_changed else 0.0
        rev = self.revolution_ms
        latency_ms = (target_angle - (now_ms + seek_ms) % rev) % rev
        if self.fail_slow is not None:
            m = self.fail_slow.scale(now_ms)
            if m != 1.0:
                seek_ms *= m
                latency_ms *= m
                transfer_ms *= m
        self.cylinder = end_cyl
        self.head = end_head
        failed = (
            self.transient_errors.draw()
            if self.transient_errors is not None
            else False
        )
        return _new(
            ServiceRecord,
            (
                seek_ms,
                latency_ms,
                transfer_ms,
                cylinder_changed,
                head_changed,
                failed,
            ),
        )

    def service_reference(
        self, request: DiskRequest, now_ms: float
    ) -> ServiceRecord:
        """The scalar reference walk (and the track-buffer path).

        Recomputes everything from the geometry per call;
        ``tests/disk/test_service_tables.py`` pins :meth:`service` against
        it request by request.
        """
        sectors = request.sectors
        if sectors < 1:
            raise ConfigurationError(f"empty transfer: {request}")
        geometry = self.geometry
        chs = geometry.lba_to_chs(request.lba)
        cylinder, head, sector = chs
        cylinder_changed = cylinder != self.cylinder
        head_changed = head != self.head

        # Track-buffer hit: a read entirely within the cached track is
        # served from the buffer at electronic speed — no arm or platter
        # involvement, arm position unchanged.
        if self.track_buffer and not request.is_write:
            last = geometry.lba_to_chs(request.lba + sectors - 1)
            if (
                self._buffered_track == (cylinder, head)
                and (last.cylinder, last.head) == self._buffered_track
            ):
                self.buffer_hits += 1
                return ServiceRecord(
                    seek_ms=0.0,
                    latency_ms=0.0,
                    transfer_ms=self.buffer_hit_ms,
                    cylinder_changed=False,
                    head_changed=False,
                )

        if cylinder_changed:
            seek_ms = self.seek_model.seek_time(
                abs(cylinder - self.cylinder)
            )
        elif head_changed:
            seek_ms = self.head_switch_ms
        else:
            seek_ms = 0.0

        rev = self.revolution_ms
        spt_of = geometry.sectors_per_track
        spt = spt_of(cylinder)
        # Rotational wait for `sector` from `now_ms + seek_ms`: the same
        # operations, in the same order, as the angle table and `service`.
        latency_ms = ((sector / spt) * rev - (now_ms + seek_ms) % rev) % rev

        transfer_ms = 0.0
        remaining = sectors
        heads = geometry.heads
        while remaining > 0:
            # spt only changes when the transfer crosses a cylinder
            # boundary (updated below) — head switches stay in-zone.
            chunk = spt - sector
            if remaining < chunk:
                chunk = remaining
            transfer_ms += chunk * rev / spt
            remaining -= chunk
            sector += chunk
            if remaining > 0:
                sector = 0
                head += 1
                if head == heads:
                    head = 0
                    cylinder += 1
                    transfer_ms += self.cylinder_switch_ms
                    spt = spt_of(cylinder)
                else:
                    transfer_ms += self.head_switch_ms

        # Fail-slow inflation covers mechanical service only — a track
        # buffer hit is electronic and returned above.
        if self.fail_slow is not None:
            m = self.fail_slow.scale(now_ms)
            if m != 1.0:
                seek_ms *= m
                latency_ms *= m
                transfer_ms *= m
        self.cylinder = cylinder
        self.head = head
        # Transient failure draw covers mechanical transfers only — a
        # buffer hit touches no media (it returned above).
        failed = (
            self.transient_errors.draw()
            if self.transient_errors is not None
            else False
        )
        if self.track_buffer:
            # Reading fills the buffer with the final track touched;
            # writes invalidate it (write-through, no read-back), and a
            # failed read caches nothing trustworthy.
            if request.is_write or failed:
                self._buffered_track = None
            else:
                self._buffered_track = (cylinder, head)
        return ServiceRecord(
            seek_ms=seek_ms,
            latency_ms=latency_ms,
            transfer_ms=transfer_ms,
            cylinder_changed=cylinder_changed,
            head_changed=head_changed,
            failed=failed,
        )

    def __repr__(self) -> str:
        return (
            f"DiskDrive({self.geometry!r}, rev={self.revolution_ms:.2f}ms)"
        )
