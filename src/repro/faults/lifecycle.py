"""The array lifecycle state machine.

Drives one controller through the full arc the paper's evaluation spans
piecewise: **fault-free** until the scenario's failure lands, **degraded**
while the failure is unhandled (the detection/dwell window),
**reconstruction** while the background sweep rebuilds lost units into
spare space under live client load, and **post-reconstruction** once the
sweep completes.  Every transition is timestamped; hooks fire on each
transition and on each completed rebuild step, which is what the
lifecycle experiment's mode histograms and progress timelines attach to.

Multi-fault scenarios extend the arc.  A *subsequent* whole-disk failure
is classified exactly against the layout mapping and the rebuild
frontier (:mod:`repro.faults.multifault`):

- if any stripe loses two members, the array enters the terminal
  **data-loss** regime — the sweep aborts, accesses stop being planned,
  and the loss is accounted (never a crash, never silent);
- a survivable mid-rebuild hit installs a replacement spindle in the
  second disk's slot and folds the extra repair work (re-lost units,
  the second disk's cells) into the same running sweep;
- a failure *after* a completed distributed-sparing rebuild starts a
  fresh degraded/reconstruction cycle against the relocated mapping
  (:class:`~repro.layouts.relocated.RelocatedView`), rebuilding onto a
  replacement spindle since the spare space is spent.

An unreadable latent sector discovered by a rebuild read is handled the
same way: the stripe being rebuilt has no redundancy left, so the unit
is unrecoverable and the array declares data loss.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.array.controller import ArrayController
from repro.array.raidops import ArrayMode
from repro.array.reconstructor import Reconstructor
from repro.core.reconstruction import RebuildStep
from repro.errors import SimulationError
from repro.faults.injector import FaultInjector
from repro.faults.media import MediaErrorMap
from repro.faults.multifault import (
    evaluate_second_failure,
    second_failure_repair_steps,
)
from repro.faults.scenario import FaultScenario
from repro.layouts.address import PhysicalAddress

#: ``on_transition(mode, time_ms)`` fires as the array enters ``mode``.
TransitionCallback = Callable[[ArrayMode, float], None]

#: Transition log entry: ``(mode value, time_ms)``.
Transition = Tuple[str, float]


class ArrayLifecycle:
    """fault-free -> degraded -> reconstruction -> post-reconstruction.

    Construct around a fresh (fault-free) controller, then :meth:`arm`;
    the scenario's failure, the rebuild start after the degraded dwell,
    and the flip to post-reconstruction all happen on the engine's clock
    while client traffic keeps flowing.  Multi-fault scenarios may add
    further degraded/reconstruction cycles, or end in the terminal
    **data-loss** regime (see the module docstring); ``media`` threads a
    latent-sector-error map into the rebuild's reads.
    """

    def __init__(
        self,
        controller: ArrayController,
        scenario: FaultScenario,
        on_transition: Optional[TransitionCallback] = None,
        on_rebuild_step: Optional[Callable[[Reconstructor], None]] = None,
        media: Optional[MediaErrorMap] = None,
        adaptive_throttle=None,
    ):
        if controller.mode is not ArrayMode.FAULT_FREE:
            raise SimulationError(
                f"lifecycle needs a fault-free array,"
                f" got {controller.mode.value}"
            )
        self.controller = controller
        self.scenario = scenario
        self.on_transition = on_transition
        self.on_rebuild_step = on_rebuild_step
        self.media = media
        #: Optional :class:`~repro.array.reconstructor.AdaptiveThrottle`
        #: threaded into every rebuild sweep this lifecycle starts; None
        #: keeps the scenario's static ``rebuild_throttle_ms``.
        self.adaptive_throttle = adaptive_throttle
        self.injector: Optional[FaultInjector] = None
        self.reconstructor: Optional[Reconstructor] = None
        self.transitions: List[Transition] = [
            (ArrayMode.FAULT_FREE.value, controller.engine.now)
        ]
        #: One record per subsequent whole-disk failure, in order.
        self.second_faults: List[dict] = []
        #: Units left without any surviving or reconstructible copy.
        self.lost_units = 0
        self.data_loss_ms: Optional[float] = None
        # Repair steps created by a survivable second failure that landed
        # during the degraded dwell, before any sweep exists; the next
        # :meth:`_start_rebuild` folds them in.
        self._pending_steps: List[RebuildStep] = []

    @property
    def mode(self) -> ArrayMode:
        return self.controller.mode

    @property
    def complete(self) -> bool:
        """Did the array reach the post-reconstruction regime?

        Checked against the transition log, not the controller mode:
        a layout without sparing finishes its rebuild onto a replacement
        spindle and the controller returns to fault-free, but the
        lifecycle still passed through every regime.
        """
        return any(
            mode == ArrayMode.POST_RECONSTRUCTION.value
            for mode, _ in self.transitions
        )

    @property
    def data_loss(self) -> bool:
        """Did the lifecycle end in the terminal data-loss regime?"""
        return self.data_loss_ms is not None

    def rebuild_progress(self) -> dict:
        """The latest rebuild sweep's counters: zero before any sweep
        starts, and a ``duration_ms`` only once one finished."""
        recon = self.reconstructor
        if recon is None:
            return {
                "duration_ms": None,
                "steps_completed": 0,
                "total_steps": 0,
                "skipped_steps": 0,
                "fraction": 0.0,
            }
        return {
            "duration_ms": (
                None if recon.finished_ms is None else recon.duration_ms
            ),
            "steps_completed": recon.steps_completed,
            "total_steps": recon.total_steps,
            "skipped_steps": recon.skipped_steps,
            "fraction": recon.fraction_complete,
        }

    def arm(self) -> FaultInjector:
        """Resolve the scenario's faults and schedule them on the engine."""
        if self.injector is not None:
            raise SimulationError("lifecycle already armed")
        self.injector = FaultInjector(
            self.controller.engine,
            self.scenario,
            self.controller.layout.n,
            self._on_failure,
        )
        self.injector.arm()
        return self.injector

    def inject_failure(self, disk: int) -> None:
        """Deliver one whole-disk failure now, from an external injector.

        The nemesis harness schedules failures itself instead of
        :meth:`arm`-ing the scenario; this routes the failure through the
        same first/subsequent classification path the injector uses.
        """
        self._on_failure(disk, self.controller.engine.now)

    def resume_after_crash(self) -> None:
        """Re-arm lifecycle work a controller crash wiped off the engine.

        Call after the post-crash resync completes.  A crash clears every
        pending event, killing the degraded dwell timer and the rebuild
        sweep's in-flight steps; platter contents and the spare cells
        already rebuilt survive.  Depending on the mode at restart:

        - DEGRADED: detection restarts — a fresh dwell timer leads to
          :meth:`_start_rebuild` as usual.
        - RECONSTRUCTION: a fresh sweep resumes from the old frontier,
          carrying over any second-failure repair steps that had not
          completed.
        - anywhere else: nothing was in flight; no-op.
        """
        controller = self.controller
        if controller.mode is ArrayMode.DEGRADED:
            controller.engine.schedule(
                self.scenario.degraded_dwell_ms, self._start_rebuild
            )
            return
        if controller.mode is not ArrayMode.RECONSTRUCTION:
            return
        old = self.reconstructor
        if old is None:
            raise SimulationError("reconstruction mode with no sweep")
        frontier = set(old.rebuilt_offsets)
        # Steps not certainly completed: the fresh plan re-covers the
        # failed disk's share; repair steps for *other* slots (survivable
        # second failures) must be carried over explicitly.
        carried = [
            s
            for s in old.outstanding_steps()
            if s.lost.disk != controller.failed_disk
        ]
        recon = Reconstructor(
            controller,
            parallel_steps=self.scenario.rebuild_parallel,
            rows=self.scenario.rebuild_rows,
            throttle_ms=self.scenario.rebuild_throttle_ms,
            on_finished=self._on_rebuilt,
            on_step=self.on_rebuild_step,
            allow_replacement=True,
            media=self.media,
            on_unreadable=self._on_unreadable,
            already_rebuilt=frontier,
            adaptive_throttle=self.adaptive_throttle,
        )
        self.reconstructor = recon
        if carried:
            recon.requeue(carried)
        controller.resume_reconstruction(recon.is_rebuilt)
        recon.start()

    def mode_at(self, time_ms: float) -> str:
        """Mode value in force at ``time_ms`` (from the transition log)."""
        current = self.transitions[0][0]
        for mode, t in self.transitions:
            if t > time_ms:
                break
            current = mode
        return current

    # ------------------------------------------------------------------
    # Transition machinery.
    # ------------------------------------------------------------------

    def _record(self, mode: ArrayMode) -> None:
        now = self.controller.engine.now
        self.transitions.append((mode.value, now))
        if self.on_transition is not None:
            self.on_transition(mode, now)

    def _on_failure(self, disk: int, now_ms: float) -> None:
        if self.controller.mode is not ArrayMode.FAULT_FREE:
            self._on_subsequent_failure(disk, now_ms)
            return
        self.controller.fail_disk(disk)
        self._record(ArrayMode.DEGRADED)
        self.controller.engine.schedule(
            self.scenario.degraded_dwell_ms, self._start_rebuild
        )

    def _repair_rows(self) -> int:
        """The repair domain, identical to the sweep's row bound."""
        if self.reconstructor is not None:
            return self.reconstructor.total_rows
        if self.scenario.rebuild_rows is not None:
            return self.scenario.rebuild_rows
        return self.controller.periods * self.controller.plan_layout.period

    def _on_subsequent_failure(self, disk: int, now_ms: float) -> None:
        controller = self.controller
        mode = controller.mode
        if mode is ArrayMode.DATA_LOSS:
            return  # the array is already lost; further failures are moot
        if mode is ArrayMode.POST_RECONSTRUCTION:
            # The completed relocation is now simply the mapping; this
            # failure starts an ordinary degraded cycle against it, onto
            # a replacement spindle (the spare space is spent).
            controller.relocate_and_fail(disk)
            self.reconstructor = None
            self.second_faults.append(
                {
                    "disk": disk,
                    "time_ms": now_ms,
                    "during": mode.value,
                    "data_loss": False,
                    "lost_units": 0,
                    "relost": 0,
                }
            )
            self._record(ArrayMode.DEGRADED)
            controller.engine.schedule(
                self.scenario.degraded_dwell_ms, self._start_rebuild
            )
            return
        # Degraded or mid-reconstruction: classify exactly against the
        # rebuild frontier (empty during the dwell).
        recon = self.reconstructor
        first = controller.failed_disk
        frontier = (
            recon.rebuilt_offsets if recon is not None else frozenset()
        )
        rows = self._repair_rows()
        outcome = evaluate_second_failure(
            controller.plan_layout, first, disk, frontier, rows
        )
        controller.fail_subsequent_disk(disk)
        self.second_faults.append(
            {
                "disk": disk,
                "time_ms": now_ms,
                "during": mode.value,
                "data_loss": outcome.data_loss,
                "lost_units": outcome.lost_units,
                "relost": len(outcome.relost_offsets),
            }
        )
        if outcome.data_loss:
            if recon is not None:
                recon.abort()
            self._declare_loss(
                f"disks {first} and {disk} share"
                f" {outcome.lost_units} unrecoverable unit(s)",
                outcome.lost_units,
            )
            return
        # Survivable: a replacement spindle takes the new failure's slot
        # and the extra repair work joins the (current or next) sweep.
        controller.install_replacement_for(disk)
        steps = second_failure_repair_steps(
            controller.plan_layout,
            first,
            disk,
            outcome.relost_offsets,
            frontier,
            rows,
        )
        if recon is not None:
            recon.unrebuild(outcome.relost_offsets)
            recon.requeue(steps)
        else:
            self._pending_steps.extend(steps)

    def _start_rebuild(self) -> None:
        if self.controller.mode is ArrayMode.DATA_LOSS:
            return  # a second failure during the dwell was fatal
        recon = Reconstructor(
            self.controller,
            parallel_steps=self.scenario.rebuild_parallel,
            rows=self.scenario.rebuild_rows,
            throttle_ms=self.scenario.rebuild_throttle_ms,
            on_finished=self._on_rebuilt,
            on_step=self.on_rebuild_step,
            # Layouts without distributed sparing rebuild onto a
            # replacement spindle instead of spare cells.
            allow_replacement=True,
            media=self.media,
            on_unreadable=self._on_unreadable,
            adaptive_throttle=self.adaptive_throttle,
        )
        self.reconstructor = recon
        if self._pending_steps:
            recon.requeue(self._pending_steps)
            self._pending_steps = []
        # Flip to reconstruction mode *before* the first step issues so
        # client plans consult the (initially empty) rebuild frontier.
        self.controller.enter_reconstruction(recon.is_rebuilt)
        self._record(ArrayMode.RECONSTRUCTION)
        recon.start()

    def _on_rebuilt(self, duration_ms: float) -> None:
        self._record(ArrayMode.POST_RECONSTRUCTION)

    def _on_unreadable(
        self,
        recon: Reconstructor,
        step: RebuildStep,
        addr: PhysicalAddress,
    ) -> None:
        """A rebuild read hit a latent sector error: the stripe has no
        redundancy left, so the unit being rebuilt is unrecoverable."""
        recon.abort()
        self._declare_loss(
            f"unreadable sector at disk {addr.disk} offset {addr.offset}"
            f" during rebuild of ({step.lost.disk}, {step.lost.offset})",
            1,
        )

    def _declare_loss(self, reason: str, lost_units: int) -> None:
        self.lost_units += lost_units
        self.data_loss_ms = self.controller.engine.now
        self.controller.declare_data_loss(reason)
        self._record(ArrayMode.DATA_LOSS)
