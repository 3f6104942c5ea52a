"""On-line background reconstruction into distributed spare space.

Sweeps the failed disk's lost units in offset order: read each stripe's
survivors, then write the rebuilt unit to its spare cell, with a bounded
number of rebuild steps in flight.  When the sweep finishes the controller
flips to post-reconstruction mode — the paper's Figure 18 regimes
(reconstruction vs post-reconstruction) are the before/after of this
process.

The reconstructor tracks which lost offsets are safely in spare space
(:meth:`Reconstructor.is_rebuilt` — the rebuild frontier that
:attr:`~repro.array.raidops.ArrayMode.RECONSTRUCTION` planning consults),
and a rebuild-rate throttle (``throttle_ms`` of idle time per slot between
steps) makes the client/rebuild interference tunable: 0 rebuilds as fast
as the spindles allow, larger values cede bandwidth to client traffic.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterable, List, Optional, Set

from repro.array.controller import REBUILD_ID_BASE, ArrayController
from repro.array.sweep import PacedSweep
from repro.core.reconstruction import (
    RebuildStep,
    count_lost_units,
    rebuild_plan,
)
from repro.errors import SimulationError
from repro.layouts.address import PhysicalAddress, Role


#: Adaptive throttle constants.  The throttle opens at its ceiling
#: (slow-start) and sprints down ``SPRINT_STEP_MS`` per healthy window:
#: opening fast would let the rebuild outrun its own violation signal —
#: the completions proving the tail blew out only arrive after a slow
#: disk's queue drains, well after the damage is done.  A window whose
#: last ``LOOKBACK_WINDOWS`` windows hold more than ``VIOLATION_FRACTION``
#: of responses over the p99 ceiling doubles the gap
#: (``BACKOFF_FACTOR``, from at least ``GROWTH_FLOOR_MS``); at tens of
#: arrivals per second a single 100 ms window holds too few completions
#: for a stable fraction, and the 500 ms lookback keeps the signal from
#: flapping.
BACKOFF_FACTOR = 2.0
SPRINT_STEP_MS = 2.0
GROWTH_FLOOR_MS = 0.5
VIOLATION_FRACTION = 0.01
LOOKBACK_WINDOWS = 5

#: Re-reads of a rebuild read that hits a latent sector error before the
#: step fails (real firmware retries before declaring a medium error).
MEDIA_RETRIES = 2


class AdaptiveThrottle:
    """AIMD rebuild-rate control from a foreground-latency signal.

    Replaces a static ``throttle_ms`` with SLO feedback: once per SLA
    window the controller asks the tracker what fraction of recent
    foreground responses broke the p99 ceiling.  Over
    ``VIOLATION_FRACTION`` means client traffic is hurting — back off
    multiplicatively (the idle gap between rebuild steps doubles, i.e.
    the rebuild *rate* halves, up to ``max_ms``).  A healthy or idle
    window recovers additively (``SPRINT_STEP_MS`` shaved off the gap,
    down to zero), sprinting the rebuild when the foreground can absorb
    it.  The gap starts at ``max_ms``.

    ``tracker`` is duck-typed to :class:`repro.traffic.sla.SlaTracker`:
    it needs ``window_ms`` and ``recent_over_fraction(now_ms, windows)``.
    """

    def __init__(self, tracker, max_ms: float):
        if max_ms < 0:
            raise SimulationError(
                f"throttle ceiling cannot be negative, got {max_ms}"
            )
        self.tracker = tracker
        self.throttle_ms = max_ms
        self.max_ms = max_ms
        self.backoffs = 0
        self.sprints = 0
        self.peak_ms = max_ms
        self._last_window: Optional[int] = None

    def current_ms(self, now_ms: float) -> float:
        """The inter-step gap to use right now (re-decided per window)."""
        window = int(now_ms // self.tracker.window_ms)
        if window != self._last_window:
            self._last_window = window
            self._decide(now_ms)
        return self.throttle_ms

    def _decide(self, now_ms: float) -> None:
        over = self.tracker.recent_over_fraction(
            now_ms, windows=LOOKBACK_WINDOWS
        )
        if over is not None and over > VIOLATION_FRACTION:
            # Foreground p99 locally broken: halve the rebuild rate.
            grown = max(self.throttle_ms * BACKOFF_FACTOR, GROWTH_FLOOR_MS)
            self.throttle_ms = min(grown, self.max_ms)
            self.peak_ms = max(self.peak_ms, self.throttle_ms)
            self.backoffs += 1
        elif self.throttle_ms > 0.0:
            # Healthy (or idle) foreground: sprint a little.
            self.throttle_ms = max(self.throttle_ms - SPRINT_STEP_MS, 0.0)
            self.sprints += 1

    def report(self) -> dict:
        return {
            "throttle_ms": self.throttle_ms,
            "peak_ms": self.peak_ms,
            "backoffs": self.backoffs,
            "sprints": self.sprints,
        }


class Reconstructor(PacedSweep):
    """Background rebuild of one failed disk.

    Attach to a controller already in degraded mode and :meth:`start`; the
    optional ``on_finished(duration_ms)`` callback fires when every lost
    unit has a rebuilt copy, ``on_step(reconstructor)`` after every
    completed rebuild step (progress timelines hook in here).

    Layouts with distributed sparing rebuild into their spare cells; for
    layouts without sparing, ``allow_replacement=True`` rebuilds onto a
    replacement spindle installed in the failed disk's slot (otherwise
    such layouts are rejected — a RAID-5 with no spare and no replacement
    genuinely has no recovery path).
    """

    kind = "rebuild"

    def __init__(
        self,
        controller: ArrayController,
        parallel_steps: int = 1,
        on_finished: Optional[Callable[[float], None]] = None,
        rows: Optional[int] = None,
        throttle_ms: float = 0.0,
        on_step: Optional[Callable[["Reconstructor"], None]] = None,
        allow_replacement: bool = False,
        media=None,
        on_unreadable: Optional[
            Callable[["Reconstructor", RebuildStep, PhysicalAddress], None]
        ] = None,
        already_rebuilt: Optional[Iterable[int]] = None,
        adaptive_throttle: Optional[AdaptiveThrottle] = None,
    ):
        super().__init__(
            controller,
            parallel_steps,
            throttle_ms,
            on_finished=on_finished,
            adaptive_throttle=adaptive_throttle,
        )
        if controller.failed_disk is None:
            raise SimulationError("no failed disk to reconstruct")
        layout = controller.plan_layout
        self.into_spare = layout.has_sparing
        if not self.into_spare and not allow_replacement:
            raise SimulationError(
                f"{layout.name} has no spare space to rebuild"
                " into (pass allow_replacement=True to rebuild onto a"
                " replacement spindle)"
            )
        self.on_step = on_step
        self.media = media
        self.on_unreadable = on_unreadable
        self.total_rows = (
            rows if rows is not None else controller.periods * layout.period
        )
        self.total_steps = count_lost_units(
            layout, controller.failed_disk, rows=self.total_rows
        )
        self._queue = rebuild_plan(
            layout, controller.failed_disk, rows=self.total_rows
        )
        done = set(already_rebuilt) if already_rebuilt else set()
        if done:
            # Resuming a sweep (crash restart): offsets already in spare
            # space keep their rebuilt copies, so only the remainder of
            # the plan runs.
            steps = [s for s in self._queue if s.lost.offset not in done]
            self.total_steps = len(steps)
            self._queue = iter(steps)
        self.steps_completed = 0
        self.skipped_steps = 0
        self.unreadable: List[PhysicalAddress] = []
        self._rebuilt_offsets: Set[int] = done
        self._inflight: Dict[int, RebuildStep] = {}
        self._next_id = REBUILD_ID_BASE

    def _begin(self) -> None:
        if not self.into_spare:
            self.controller.install_replacement()

    # ------------------------------------------------------------------
    # Rebuild frontier and progress.
    # ------------------------------------------------------------------

    def is_rebuilt(self, offset: int) -> bool:
        """Is the failed disk's cell at ``offset`` safely in spare space?"""
        return offset in self._rebuilt_offsets

    @property
    def rebuilt_offsets(self) -> Set[int]:
        """The frontier as a set (second-failure evaluation reads this)."""
        return self._rebuilt_offsets

    # ------------------------------------------------------------------
    # Second-failure hooks (driven by the lifecycle; a second failure or
    # an unreadable sector that loses data calls :meth:`abort`).
    # ------------------------------------------------------------------

    def unrebuild(self, offsets: Iterable[int]) -> None:
        """Pull offsets back out of the frontier (their rebuilt copies
        died with the second disk); requeued repair steps re-sweep them."""
        if self._aborted:
            raise SimulationError("reconstruction was aborted")
        for offset in offsets:
            self._rebuilt_offsets.discard(offset)

    def requeue(self, steps: List[RebuildStep]) -> None:
        """Append extra repair steps to the in-progress sweep.

        A survivable second failure adds work: re-lost units swept again
        onto the replacement spindle, plus the second disk's own cells.
        The steps join the tail of the existing plan and idle slots are
        kicked awake, so the same rebuild cycle absorbs them.
        """
        if self._aborted:
            raise SimulationError("reconstruction was aborted")
        if self.finished_ms is not None:
            raise SimulationError(
                "reconstruction already finished; start a new cycle"
            )
        if not steps:
            return
        self.total_steps += len(steps)
        self._queue = itertools.chain(self._queue, iter(steps))
        self._exhausted = False
        if self.started_ms is None:
            return  # start() will issue them
        idle = self.slots - self._active - self._pending_issues
        for _ in range(idle):
            self._issue_next()

    def outstanding_steps(self) -> List[RebuildStep]:
        """Drain every step without a completed rebuilt copy.

        Used after a controller crash wiped the in-flight operations: the
        issued-but-unfinished steps plus the never-issued remainder of the
        plan, in issue order.  The plan is left exhausted — the caller
        owns the returned steps (typically requeueing the survivors into
        a fresh reconstructor).
        """
        remaining = list(self._queue)
        self._queue = iter(())
        self._exhausted = True
        return list(self._inflight.values()) + remaining

    @property
    def progress(self) -> int:
        """Rebuild steps completed so far."""
        return self.steps_completed

    @property
    def fraction_complete(self) -> float:
        """Completed fraction of the sweep, 0.0 to 1.0."""
        if self.total_steps == 0:
            return 1.0
        return self.steps_completed / self.total_steps

    # ------------------------------------------------------------------
    # Rebuild steps.
    # ------------------------------------------------------------------

    def _run(self, step: RebuildStep) -> None:
        controller = self.controller
        access_id = self._next_id
        self._next_id += 1
        self._inflight[access_id] = step
        remaining = {"reads": len(step.reads), "failed": False}

        def write_done() -> None:
            self._inflight.pop(access_id, None)
            self._active -= 1
            self.steps_completed += 1
            self._rebuilt_offsets.add(step.lost.offset)
            if self.media is not None:
                self.media.clear(target.disk, target.offset)
            oracle = controller.oracle
            if oracle is not None:
                # A lost *data* unit was regenerated through the parity
                # chain — corrupt if a torn write left it untrustworthy.
                lost_role = controller.plan_layout.locate(
                    step.lost.disk, step.lost.offset
                ).role
                oracle.check_rebuild_step(
                    step.stripe, lost_role is Role.DATA
                )
            if self.on_step is not None:
                self.on_step(self)
            self._refill_slot()

        # Spare-cell target with distributed sparing; the original
        # address on the replacement spindle without.
        target = step.write if step.write is not None else step.lost

        def all_reads_good() -> None:
            controller.submit_raw(
                target.disk,
                target.offset,
                True,
                access_id,
                write_done,
                tag="rebuild-write",
            )

        def read_done(addr: PhysicalAddress, attempt: int) -> None:
            if remaining["failed"]:
                return  # step already failed on a sibling read
            if self.media is not None and self.media.is_bad(
                addr.disk, addr.offset
            ):
                if attempt < MEDIA_RETRIES:
                    # Retry the sector in place.
                    issue_read(addr, attempt + 1)
                    return
                remaining["failed"] = True
                self._inflight.pop(access_id, None)
                self._fail_step(step, addr)
                return
            remaining["reads"] -= 1
            if remaining["reads"] == 0:
                all_reads_good()

        def issue_read(addr: PhysicalAddress, attempt: int) -> None:
            controller.submit_raw(
                addr.disk,
                addr.offset,
                False,
                access_id,
                lambda: read_done(addr, attempt),
                tag="rebuild-read",
            )

        for addr in step.reads:
            issue_read(addr, 0)

    def _fail_step(self, step: RebuildStep, addr: PhysicalAddress) -> None:
        """A rebuild read hit an unreadable sector after all retries.

        The stripe being rebuilt has no redundancy left, so the lost unit
        is gone.  By default that is terminal data loss (the sweep aborts
        and the controller records the reason); an ``on_unreadable``
        handler can instead account the loss and let the sweep continue
        (``skipped_steps`` then counts the abandoned units).
        """
        self._active -= 1
        self.unreadable.append(addr)
        if self.on_unreadable is not None:
            self.on_unreadable(self, step, addr)
        else:
            self.abort()
            self.controller.declare_data_loss(
                f"unreadable sector at disk {addr.disk} offset"
                f" {addr.offset} during rebuild of"
                f" ({step.lost.disk}, {step.lost.offset})"
            )
        if not self._aborted:
            self.skipped_steps += 1
            self._refill_slot()

    def _on_finish(self) -> None:
        self.controller.finish_reconstruction()
