"""Paced background sweeps: the mechanism under rebuild and resync.

A sweep walks a queue of work items (rebuild steps, stripes to
recompute) with at most ``slots`` in flight; each freed slot idles
``throttle_ms`` (or an adaptive throttle's current gap) before taking
the next item, so the sweep's interference with client traffic is
tunable.  It finishes, stamping ``finished_ms`` and firing
``on_finished(duration_ms)``, once the queue is drained and nothing is
in flight or pending; an aborted sweep issues nothing more and never
finishes.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from repro.errors import SimulationError


class PacedSweep:
    """Slots, throttle, abort and finish time of one background sweep.

    Subclasses set ``_queue``, implement :meth:`_run` (issue one item's
    operations; on completion decrement ``_active`` and call
    :meth:`_refill_slot`) and may extend :meth:`_begin` (runs at
    :meth:`start`, before the slots fill) and :meth:`_on_finish`.
    ``kind`` names the sweep in errors.  ``adaptive_throttle``, duck-typed
    to :class:`~repro.array.reconstructor.AdaptiveThrottle`, overrides
    ``throttle_ms`` with its per-window decision.
    """

    kind = "sweep"

    def __init__(
        self,
        controller,
        slots: int,
        throttle_ms: float,
        on_finished: Optional[Callable[[float], None]] = None,
        adaptive_throttle=None,
    ):
        if slots < 1:
            raise SimulationError(f"need at least one {self.kind} slot")
        if throttle_ms < 0:
            raise SimulationError(
                f"negative {self.kind} throttle {throttle_ms}"
            )
        self.controller = controller
        self.slots = slots
        self.throttle_ms = throttle_ms
        self.adaptive_throttle = adaptive_throttle
        self.on_finished = on_finished
        self.started_ms: Optional[float] = None
        self.finished_ms: Optional[float] = None
        self._queue: Iterator = iter(())
        self._active = 0
        self._pending_issues = 0
        self._exhausted = False
        self._aborted = False

    def start(self) -> None:
        if self.started_ms is not None:
            raise SimulationError(f"{self.kind} already started")
        self.started_ms = self.controller.engine.now
        self._begin()
        for _ in range(self.slots):
            self._issue_next()
        self._maybe_finish()  # degenerate: nothing to do

    def abort(self) -> None:
        """Stop issuing items; in-flight operations drain harmlessly and
        ``on_finished`` never fires."""
        self._aborted = True

    @property
    def aborted(self) -> bool:
        return self._aborted

    @property
    def duration_ms(self) -> float:
        if self.started_ms is None or self.finished_ms is None:
            raise SimulationError(f"{self.kind} has not finished")
        return self.finished_ms - self.started_ms

    def _begin(self) -> None:
        """Start-of-sweep work, after ``started_ms`` is stamped."""

    def _run(self, item) -> None:
        raise NotImplementedError

    def _on_finish(self) -> None:
        """Finish-time work, before ``on_finished`` fires."""

    # ------------------------------------------------------------------
    # Pacing.
    # ------------------------------------------------------------------

    def _issue_next(self) -> None:
        if self._exhausted or self._aborted:
            return
        item = next(self._queue, None)
        if item is None:
            self._exhausted = True
            return
        self._active += 1
        self._run(item)

    def _refill_slot(self) -> None:
        """One slot freed up: issue the next item, throttled if configured."""
        if self._aborted:
            return
        if self._exhausted:
            self._maybe_finish()
            return
        if self.adaptive_throttle is not None:
            delay = self.adaptive_throttle.current_ms(
                self.controller.engine.now
            )
        else:
            delay = self.throttle_ms
        if delay > 0:
            self._pending_issues += 1
            self.controller.engine.schedule(delay, self._delayed_issue)
        else:
            self._issue_next()
            self._maybe_finish()

    def _delayed_issue(self) -> None:
        self._pending_issues -= 1
        self._issue_next()
        self._maybe_finish()

    def _maybe_finish(self) -> None:
        if (
            self._exhausted
            and not self._aborted
            and self._active == 0
            and self._pending_issues == 0
            and self.finished_ms is None
        ):
            self.finished_ms = self.controller.engine.now
            self._on_finish()
            if self.on_finished is not None:
                self.on_finished(self.duration_ms)
