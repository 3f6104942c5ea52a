"""Bounded admission queue and overload detection.

Open-loop arrivals do not wait for the array: requests land whether or
not the previous one finished.  The :class:`AdmissionQueue` sits in
front of :meth:`ArrayController.submit` with a fixed number of service
slots (the controller-level concurrency window) and a bounded FIFO of
waiting requests; an arrival that finds the FIFO full is **shed** and
accounted, never silently dropped.  Reported response times span offer
to completion, so admission wait is part of the latency a request sees.

The :class:`OverloadDetector` watches the waiting-queue depth: if the
*minimum* depth over each detection window keeps strictly growing for a
configured number of consecutive windows (and never drains to zero),
the queue is not an arrival blip — service capacity is below offered
load and the system is in queueing collapse.  The detection verdict and
time land in the trial results.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, Tuple

from repro.array.controller import ArrayController, LogicalAccess
from repro.errors import ConfigurationError
from repro.sim.instrument import DepthTimeline
from repro.traffic.arrivals import ArrivalProcess

#: ``on_response(access, total_ms, wait_ms)`` — total latency from offer
#: to completion, and the admission-queue share of it.
ResponseCallback = Callable[[LogicalAccess, float, float], None]


class OverloadDetector:
    """Flags sustained queue growth over consecutive windows.

    Depth samples are bucketed into ``window_ms`` windows; a closed
    window whose minimum depth is positive *and* strictly above the
    previous window's minimum is a growth window.  ``windows``
    consecutive growth windows latch :attr:`overloaded` (with the
    detection time); anything else resets the streak — a queue that
    drains to empty between bursts is busy, not collapsing.
    """

    def __init__(self, window_ms: float = 100.0, windows: int = 3):
        if window_ms <= 0:
            raise ConfigurationError(
                f"detector window must be positive, got {window_ms}"
            )
        if windows < 1:
            raise ConfigurationError(
                f"need >= 1 detection window, got {windows}"
            )
        self.window_ms = window_ms
        self.windows = windows
        self.overloaded = False
        self.detected_at_ms: Optional[float] = None
        self.max_streak = 0
        self._index = 0
        self._min: Optional[int] = None
        self._prev_min: Optional[int] = None
        self._last_depth = 0
        self._streak = 0

    def sample(self, time_ms: float, depth: int) -> None:
        index = int(time_ms // self.window_ms)
        while index > self._index:
            self._close_window()
        if self._min is None or depth < self._min:
            self._min = depth
        self._last_depth = depth

    def _close_window(self) -> None:
        # A window with no samples kept whatever depth it started with.
        closed = self._min if self._min is not None else self._last_depth
        growing = (
            closed > 0
            and self._prev_min is not None
            and closed > self._prev_min
        )
        if growing:
            self._streak += 1
            if self._streak > self.max_streak:
                self.max_streak = self._streak
            if self._streak >= self.windows and not self.overloaded:
                self.overloaded = True
                self.detected_at_ms = (self._index + 1) * self.window_ms
        else:
            self._streak = 0
        self._prev_min = closed
        self._index += 1
        self._min = None

    def report(self) -> dict:
        return {
            "overloaded": self.overloaded,
            "detected_at_ms": self.detected_at_ms,
            "max_growth_streak": self.max_streak,
        }


class AdmissionQueue:
    """Bounded FIFO admission in front of the array controller.

    ``service_slots`` requests may be in flight in the array at once;
    the next ``depth`` wait in FIFO order; beyond that, arrivals are
    shed.  Completions pull from the FIFO immediately, on the engine
    clock.
    """

    def __init__(
        self,
        controller: ArrayController,
        on_response: ResponseCallback,
        depth: int = 64,
        service_slots: int = 8,
        detector: Optional[OverloadDetector] = None,
        timeline: Optional[DepthTimeline] = None,
    ):
        if depth < 1:
            raise ConfigurationError(f"need queue depth >= 1, got {depth}")
        if service_slots < 1:
            raise ConfigurationError(
                f"need >= 1 service slot, got {service_slots}"
            )
        self.controller = controller
        self.on_response = on_response
        self.depth = depth
        self.service_slots = service_slots
        self.detector = detector
        self.timeline = timeline
        self._waiting: Deque[Tuple[LogicalAccess, float]] = deque()
        self.in_service = 0
        self.offered = 0
        self.admitted = 0
        self.shed = 0
        self.completed = 0
        self.queue_high_water = 0
        self.total_wait_ms = 0.0

    def offer(self, access: LogicalAccess) -> bool:
        """Admit (serve or queue) or shed one arrival; True if admitted."""
        now = self.controller.engine.now
        self.offered += 1
        if self.in_service < self.service_slots and not self._waiting:
            self.admitted += 1
            self._start(access, now)
            return True
        if len(self._waiting) < self.depth:
            self.admitted += 1
            self._waiting.append((access, now))
            if len(self._waiting) > self.queue_high_water:
                self.queue_high_water = len(self._waiting)
            self._sample(now)
            return True
        self.shed += 1
        self._sample(now)
        return False

    def _sample(self, now: float) -> None:
        depth = len(self._waiting)
        if self.detector is not None:
            self.detector.sample(now, depth)
        if self.timeline is not None:
            self.timeline.record(now, depth)

    def _start(self, access: LogicalAccess, offered_ms: float) -> None:
        self.in_service += 1

        def completed(done: LogicalAccess, response_ms: float) -> None:
            now = self.controller.engine.now
            self.in_service -= 1
            self.completed += 1
            if self._waiting:
                waiting, queued_ms = self._waiting.popleft()
                wait_ms = now - queued_ms
                self.total_wait_ms += wait_ms
                self._sample(now)
                self._start(waiting, queued_ms)
            self.on_response(done, now - offered_ms, now - offered_ms - response_ms)

        self.controller.submit(access, completed)

    @property
    def waiting(self) -> int:
        return len(self._waiting)

    def stats(self) -> dict:
        return {
            "depth": self.depth,
            "service_slots": self.service_slots,
            "offered": self.offered,
            "admitted": self.admitted,
            "shed": self.shed,
            "completed": self.completed,
            "queue_high_water": self.queue_high_water,
            "mean_wait_ms": (
                self.total_wait_ms / self.completed if self.completed else 0.0
            ),
        }


def offer_arrivals(
    queue: AdmissionQueue,
    process: ArrivalProcess,
    make_access: Callable[[int], LogicalAccess],
    count: int,
    start_ms: float,
    on_shed: Callable[[], None],
) -> None:
    """Schedule ``count`` open-loop arrivals into ``queue``.

    The first arrival lands one drawn gap after ``start_ms``; each
    arrival draws the gap to the next.  ``make_access(i)`` builds the
    ``i``-th access, and a shed arrival calls ``on_shed`` (it is
    resolved without a response).  The number offered so far is
    ``queue.offered``.
    """
    engine = queue.controller.engine

    def arrive() -> None:
        if not queue.offer(make_access(queue.offered)):
            on_shed()
        if queue.offered < count:
            engine.schedule(process.next_delay_ms(), arrive)

    engine.schedule_at(start_ms + process.next_delay_ms(), arrive)
