"""Seeded composition of every fault the simulator can inject.

PRs 2-5 each test one fault mechanism in isolation — whole-disk
failures, controller crashes, latent sector errors, transient I/O
storms, scrubbing.  The space where write-hole and parity-consistency
bugs actually hide is their *composition*: a crash during a rebuild
during an LSE burst with scrubbing off.  A :class:`NemesisSchedule` is a
seeded, replayable plan over that space — the storage-sim analogue of a
Jepsen/YDB nemesis: faults are drawn up front, applied under legality
rules, and tracked as active/healed so no composition the hardware
could not produce (two concurrent crashes, a third concurrent storm) is
ever injected.

Two legality layers:

- **static** (:meth:`NemesisSchedule.validate`): the drawn plan itself
  is well-formed — times ordered and inside the horizon, distinct
  failure disks, in-range burst cells, non-overlapping storm and
  scrub-off windows, crashes spaced wider than the restart path;
- **dynamic** (the trial executor): a drawn event can still be illegal
  *at fire time* because earlier faults changed the world (a failure
  landing mid-crash-recovery, anything after terminal data loss).  Such
  events are skipped with a recorded reason, never silently dropped —
  the skip list is part of the trial's deterministic record.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError

#: Bump when the schedule grammar changes incompatibly.
NEMESIS_SCHEDULE_VERSION = 1

#: Every event kind a schedule may contain.
EVENT_KINDS = (
    "disk-failure",
    "crash",
    "lse-burst",
    "transient-storm",
    "scrub-off",
    "failslow",
    "corruption-burst",
)

#: Kinds that occupy a window (carry ``duration_ms``); the rest are
#: instantaneous (a crash *begins* a fault that heals at resync time).
_WINDOW_KINDS = ("transient-storm", "scrub-off", "failslow", "corruption-burst")


@dataclass(frozen=True)
class NemesisEvent:
    """One planned fault.

    Which optional fields are set depends on ``kind``:

    - ``disk-failure``: ``disk``
    - ``crash``: nothing (restart delay is a trial knob)
    - ``lse-burst``: ``cells`` — ``((disk, offset), ...)``
    - ``transient-storm``: ``rate`` and ``duration_ms``
    - ``scrub-off``: ``duration_ms``
    - ``failslow``: ``disk``, ``multiplier`` and ``duration_ms`` (a
      gray failure: the disk serves every request at ``multiplier``
      times its healthy service time for the window, then heals)
    - ``corruption-burst``: ``disk``, ``rate`` and ``duration_ms`` (a
      silent-corruption window: for its duration each physical write to
      the disk is lost with probability ``rate`` and misdirected with
      probability ``rate / 2``, then the drive returns to honesty —
      what it already corrupted stays corrupt)
    """

    time_ms: float
    kind: str
    disk: Optional[int] = None
    cells: Optional[Tuple[Tuple[int, int], ...]] = None
    rate: Optional[float] = None
    duration_ms: Optional[float] = None
    multiplier: Optional[float] = None

    def to_dict(self) -> dict:
        data: dict = {"time_ms": self.time_ms, "kind": self.kind}
        if self.disk is not None:
            data["disk"] = self.disk
        if self.cells is not None:
            data["cells"] = [list(cell) for cell in self.cells]
        if self.rate is not None:
            data["rate"] = self.rate
        if self.duration_ms is not None:
            data["duration_ms"] = self.duration_ms
        if self.multiplier is not None:
            data["multiplier"] = self.multiplier
        return data


@dataclass(frozen=True)
class NemesisSchedule:
    """A replayable fault plan: events in time order, plus provenance.

    Build with :meth:`draw` (seeded, always legal) or :meth:`from_events`
    (scripted compositions for targeted tests — validated, so a test
    cannot accidentally script an impossible world).

    >>> a = NemesisSchedule.draw(7, n_disks=13, rows=26)
    >>> b = NemesisSchedule.draw(7, n_disks=13, rows=26)
    >>> a == b and a.content_hash() == b.content_hash()
    True
    """

    events: Tuple[NemesisEvent, ...]
    seed: Optional[int] = None
    horizon_ms: float = 20000.0
    min_crash_gap_ms: float = 500.0

    @classmethod
    def draw(
        cls,
        seed: int,
        n_disks: int,
        rows: int,
        horizon_ms: float = 20000.0,
        max_disk_failures: int = 2,
        max_crashes: int = 2,
        max_lse_bursts: int = 2,
        max_storms: int = 1,
        max_scrub_windows: int = 1,
        storm_rate: float = 0.02,
        min_crash_gap_ms: float = 500.0,
        max_failslow: int = 0,
        failslow_multiplier: float = 5.0,
        max_corruption_bursts: int = 0,
        corruption_rate: float = 0.05,
    ) -> "NemesisSchedule":
        """Draw a legal schedule from a named stream of ``seed``.

        Always includes at least one disk failure (a nemesis trial with
        no failure tests nothing); every other fault class draws a count
        from zero up to its cap.  Draw order is fixed — failures,
        crashes, bursts, storms, scrub windows, fail-slow windows,
        corruption-burst windows — so a seed replays the identical
        schedule regardless of caller.  The fail-slow and
        corruption-burst draw blocks are skipped entirely at their
        default zero caps (not even a zero-count draw), so schedules
        drawn before those kinds existed replay byte-identically.
        """
        if n_disks < 2 or rows < 1:
            raise ConfigurationError("need >= 2 disks and >= 1 row")
        if horizon_ms <= 0:
            raise ConfigurationError(f"bad horizon {horizon_ms}")
        if not 1 <= max_disk_failures <= n_disks:
            raise ConfigurationError(
                f"disk-failure cap {max_disk_failures} outside"
                f" [1, {n_disks}]"
            )
        if not 0.0 < storm_rate < 1.0:
            raise ConfigurationError(f"storm rate {storm_rate} not in (0,1)")
        rng = random.Random(f"{seed}/nemesis")
        events: List[NemesisEvent] = []

        n_failures = rng.randint(1, max_disk_failures)
        for disk in rng.sample(range(n_disks), n_failures):
            events.append(
                NemesisEvent(
                    time_ms=rng.uniform(0.02, 0.6) * horizon_ms,
                    kind="disk-failure",
                    disk=disk,
                )
            )

        crash_times: List[float] = sorted(
            rng.uniform(0.05, 0.8) * horizon_ms
            for _ in range(rng.randint(0, max_crashes))
        )
        last = -min_crash_gap_ms
        for t in crash_times:
            if t - last < min_crash_gap_ms:
                continue  # too close to the previous crash's restart path
            events.append(NemesisEvent(time_ms=t, kind="crash"))
            last = t

        for _ in range(rng.randint(0, max_lse_bursts)):
            t = rng.uniform(0.0, 0.7) * horizon_ms
            n_cells = rng.randint(1, min(3, rows * n_disks))
            cells = set()
            while len(cells) < n_cells:
                cells.add((rng.randrange(n_disks), rng.randrange(rows)))
            events.append(
                NemesisEvent(
                    time_ms=t, kind="lse-burst", cells=tuple(sorted(cells))
                )
            )

        windows: List[Tuple[float, float]] = []

        def place_window(lo: float, hi: float) -> Optional[Tuple[float, float]]:
            start = rng.uniform(0.0, 0.7) * horizon_ms
            duration = rng.uniform(lo, hi) * horizon_ms
            end = start + duration
            for s, e in windows:
                if start < e and s < end:
                    return None  # overlaps an earlier window; drop it
            windows.append((start, end))
            return start, duration

        for _ in range(rng.randint(0, max_storms)):
            placed = place_window(0.05, 0.15)
            if placed is not None:
                events.append(
                    NemesisEvent(
                        time_ms=placed[0],
                        kind="transient-storm",
                        rate=storm_rate,
                        duration_ms=placed[1],
                    )
                )

        windows = []  # scrub windows only exclude each other
        for _ in range(rng.randint(0, max_scrub_windows)):
            placed = place_window(0.1, 0.3)
            if placed is not None:
                events.append(
                    NemesisEvent(
                        time_ms=placed[0],
                        kind="scrub-off",
                        duration_ms=placed[1],
                    )
                )

        if max_failslow > 0:
            if failslow_multiplier <= 1.0:
                raise ConfigurationError(
                    f"fail-slow multiplier {failslow_multiplier} must"
                    f" exceed 1.0"
                )
            # One window per drawn disk: a spindle degrades once per
            # trial, which keeps per-disk overlap impossible by
            # construction.
            n_slow = rng.randint(0, min(max_failslow, n_disks))
            for disk in rng.sample(range(n_disks), n_slow):
                start = rng.uniform(0.05, 0.5) * horizon_ms
                duration = rng.uniform(0.2, 0.4) * horizon_ms
                events.append(
                    NemesisEvent(
                        time_ms=start,
                        kind="failslow",
                        disk=disk,
                        duration_ms=duration,
                        multiplier=failslow_multiplier,
                    )
                )

        if max_corruption_bursts > 0:
            if not 0.0 < corruption_rate <= 0.5:
                raise ConfigurationError(
                    f"corruption rate {corruption_rate} not in (0, 0.5]"
                )
            # Like fail-slow: at most one window per drawn disk, so
            # per-disk overlap is impossible by construction.
            n_bursts = rng.randint(0, min(max_corruption_bursts, n_disks))
            for disk in rng.sample(range(n_disks), n_bursts):
                start = rng.uniform(0.05, 0.5) * horizon_ms
                duration = rng.uniform(0.15, 0.35) * horizon_ms
                events.append(
                    NemesisEvent(
                        time_ms=start,
                        kind="corruption-burst",
                        disk=disk,
                        rate=corruption_rate,
                        duration_ms=duration,
                    )
                )

        schedule = cls(
            events=tuple(
                sorted(events, key=lambda e: (e.time_ms, e.kind))
            ),
            seed=seed,
            horizon_ms=horizon_ms,
            min_crash_gap_ms=min_crash_gap_ms,
        )
        schedule.validate(n_disks, rows)
        return schedule

    @classmethod
    def from_events(
        cls,
        events: List[NemesisEvent],
        n_disks: int,
        rows: int,
        horizon_ms: float = 20000.0,
        min_crash_gap_ms: float = 500.0,
    ) -> "NemesisSchedule":
        """A scripted schedule (targeted regression tests); validated."""
        schedule = cls(
            events=tuple(
                sorted(events, key=lambda e: (e.time_ms, e.kind))
            ),
            seed=None,
            horizon_ms=horizon_ms,
            min_crash_gap_ms=min_crash_gap_ms,
        )
        schedule.validate(n_disks, rows)
        return schedule

    def validate(self, n_disks: int, rows: int) -> None:
        """Static legality; raises ``ConfigurationError`` on any breach."""
        failed_disks = set()
        last_crash: Optional[float] = None
        storm_end = -1.0
        scrub_end = -1.0
        failslow_end: Dict[int, float] = {}
        burst_end: Dict[int, float] = {}
        last_time = 0.0
        for event in self.events:
            if event.kind not in EVENT_KINDS:
                raise ConfigurationError(
                    f"unknown nemesis event kind {event.kind!r}"
                )
            if not 0.0 <= event.time_ms < self.horizon_ms:
                raise ConfigurationError(
                    f"{event.kind} at {event.time_ms}ms outside"
                    f" [0, {self.horizon_ms})"
                )
            if event.time_ms < last_time:
                raise ConfigurationError("events out of time order")
            last_time = event.time_ms
            if (event.duration_ms is not None) != (
                event.kind in _WINDOW_KINDS
            ):
                raise ConfigurationError(
                    f"{event.kind} duration mismatch"
                )
            if event.duration_ms is not None and event.duration_ms <= 0:
                raise ConfigurationError(
                    f"{event.kind} window must be positive"
                )
            if event.kind == "disk-failure":
                if event.disk is None or not 0 <= event.disk < n_disks:
                    raise ConfigurationError(
                        f"failure disk {event.disk} outside"
                        f" [0, {n_disks})"
                    )
                if event.disk in failed_disks:
                    raise ConfigurationError(
                        f"disk {event.disk} fails twice"
                    )
                failed_disks.add(event.disk)
            elif event.kind == "crash":
                if (
                    last_crash is not None
                    and event.time_ms - last_crash < self.min_crash_gap_ms
                ):
                    raise ConfigurationError(
                        f"crashes {last_crash}ms and {event.time_ms}ms"
                        f" closer than {self.min_crash_gap_ms}ms"
                    )
                last_crash = event.time_ms
            elif event.kind == "lse-burst":
                if not event.cells:
                    raise ConfigurationError("empty LSE burst")
                for disk, offset in event.cells:
                    if not (0 <= disk < n_disks and 0 <= offset < rows):
                        raise ConfigurationError(
                            f"burst cell ({disk}, {offset}) outside the"
                            f" {n_disks}x{rows} domain"
                        )
            elif event.kind == "transient-storm":
                if event.rate is None or not 0.0 < event.rate < 1.0:
                    raise ConfigurationError(
                        f"storm rate {event.rate} not in (0, 1)"
                    )
                if event.time_ms < storm_end:
                    raise ConfigurationError("overlapping storms")
                storm_end = event.time_ms + event.duration_ms
            elif event.kind == "scrub-off":
                if event.time_ms < scrub_end:
                    raise ConfigurationError(
                        "overlapping scrub-off windows"
                    )
                scrub_end = event.time_ms + event.duration_ms
            elif event.kind == "failslow":
                if event.disk is None or not 0 <= event.disk < n_disks:
                    raise ConfigurationError(
                        f"fail-slow disk {event.disk} outside"
                        f" [0, {n_disks})"
                    )
                if event.multiplier is None or event.multiplier <= 1.0:
                    raise ConfigurationError(
                        f"fail-slow multiplier {event.multiplier} must"
                        f" exceed 1.0"
                    )
                if event.time_ms < failslow_end.get(event.disk, -1.0):
                    raise ConfigurationError(
                        f"overlapping fail-slow windows on disk"
                        f" {event.disk}"
                    )
                failslow_end[event.disk] = (
                    event.time_ms + event.duration_ms
                )
            elif event.kind == "corruption-burst":
                if event.disk is None or not 0 <= event.disk < n_disks:
                    raise ConfigurationError(
                        f"corruption-burst disk {event.disk} outside"
                        f" [0, {n_disks})"
                    )
                if event.rate is None or not 0.0 < event.rate <= 0.5:
                    raise ConfigurationError(
                        f"corruption-burst rate {event.rate} not in"
                        f" (0, 0.5]"
                    )
                if event.time_ms < burst_end.get(event.disk, -1.0):
                    raise ConfigurationError(
                        f"overlapping corruption-burst windows on disk"
                        f" {event.disk}"
                    )
                burst_end[event.disk] = (
                    event.time_ms + event.duration_ms
                )

    def to_dict(self) -> dict:
        data: dict = {
            "schema": NEMESIS_SCHEDULE_VERSION,
            "horizon_ms": self.horizon_ms,
            "min_crash_gap_ms": self.min_crash_gap_ms,
            "events": [event.to_dict() for event in self.events],
        }
        if self.seed is not None:
            data["seed"] = self.seed
        return data

    def content_hash(self) -> str:
        """Stable SHA-256 over the canonical JSON of the plan."""
        canonical = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ActiveFaultTracker:
    """Begin/heal bookkeeping for live faults (the YDB nemesis pattern).

    Every injected fault *begins* and later *heals* (instantaneous
    faults do both at once); the tracker answers "is a fault of this
    kind live right now?" for the dynamic legality checks and keeps the
    full history for the trial record.

    >>> t = ActiveFaultTracker()
    >>> token = t.begin("crash", 10.0)
    >>> t.is_active("crash")
    True
    >>> t.heal(token, 25.0)
    >>> t.is_active("crash"), t.history[0]["healed_ms"]
    (False, 25.0)
    """

    def __init__(self) -> None:
        self.history: List[dict] = []
        self._active: Dict[int, int] = {}  # token -> history index
        self._next_token = 0

    def begin(
        self, kind: str, at_ms: float, detail: Optional[str] = None
    ) -> int:
        token = self._next_token
        self._next_token += 1
        entry = {"kind": kind, "begun_ms": at_ms, "healed_ms": None}
        if detail is not None:
            entry["detail"] = detail
        self._active[token] = len(self.history)
        self.history.append(entry)
        return token

    def heal(self, token: int, at_ms: float) -> None:
        index = self._active.pop(token, None)
        if index is None:
            raise ConfigurationError(f"unknown or healed fault {token}")
        self.history[index]["healed_ms"] = at_ms

    def record(
        self, kind: str, at_ms: float, detail: Optional[str] = None
    ) -> None:
        """An instantaneous fault: begun and healed at the same instant."""
        self.heal(self.begin(kind, at_ms, detail), at_ms)

    def is_active(self, kind: str) -> bool:
        return any(
            self.history[i]["kind"] == kind for i in self._active.values()
        )

    def active_kinds(self) -> List[str]:
        return sorted(
            {self.history[i]["kind"] for i in self._active.values()}
        )

    def to_dict(self) -> dict:
        return {"active": self.active_kinds(), "history": self.history}
