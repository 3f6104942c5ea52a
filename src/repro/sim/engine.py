"""The event loop.

Deterministic: events fire in ``(time, seq)`` order, where ``seq`` is a
monotonic per-engine counter, so events at equal times fire in
scheduling order.  Time is a float in milliseconds (matching the disk
model's units).  The queue is one binary heap (``heapq`` of ``(time,
seq, callback)`` tuples); callbacks are never compared.

There is one run mode: :meth:`run` fires events until the heap drains
or a callback calls :meth:`stop`.  A horizon is a stop event —
``engine.schedule_at(horizon_ms, engine.stop)`` — so it obeys the same
FIFO contract as every other event.

This is the innermost loop of every experiment — millions of events per
figure — so it is deliberately lean: bound-method locals, and a plain
integer tie-break counter (no ``itertools.count`` indirection).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, List, Tuple

from repro.errors import SimulationError

Callback = Callable[[], None]

_INF = float("inf")


class SimulationEngine:
    """A binary-heap discrete-event scheduler.

    >>> engine = SimulationEngine()
    >>> fired = []
    >>> engine.schedule(5.0, lambda: fired.append(engine.now))
    >>> engine.schedule(1.0, lambda: fired.append(engine.now))
    >>> engine.run()
    2
    >>> fired
    [1.0, 5.0]
    """

    def __init__(self):
        self.now: float = 0.0
        self._heap: List[Tuple[float, int, Callback]] = []
        self._seq = 0  # monotonic tie-break: equal times fire in push order
        self._stopped = False
        self.events_processed = 0
        #: Largest pending-event count ever reached (memory footprint probe).
        self.heap_high_water = 0

    def schedule(self, delay: float, callback: Callback) -> None:
        """Run ``callback`` ``delay`` ms from the current time.

        ``delay`` must be finite and non-negative: a NaN time would fire
        out of order and an infinite one would leave ``now`` infinite.
        """
        if not 0 <= delay < _INF:
            raise SimulationError(
                f"event delay must be finite and >= 0, got {delay}"
            )
        heap = self._heap
        self._seq += 1
        heappush(heap, (self.now + delay, self._seq, callback))
        if len(heap) > self.heap_high_water:
            self.heap_high_water = len(heap)

    def schedule_at(self, time: float, callback: Callback) -> None:
        """Run ``callback`` at absolute time ``time`` (finite, not before
        ``now``)."""
        if not self.now <= time < _INF:
            raise SimulationError(
                f"cannot schedule at {time}: events need a finite time"
                f" no earlier than now = {self.now}"
            )
        heap = self._heap
        self._seq += 1
        heappush(heap, (time, self._seq, callback))
        if len(heap) > self.heap_high_water:
            self.heap_high_water = len(heap)

    def stop(self) -> None:
        """Stop the run loop after the current event."""
        self._stopped = True

    def run(self) -> int:
        """Process events until the heap drains or :meth:`stop` is called.

        Returns the number of events processed by *this* call.  A
        :meth:`stop` issued from inside a callback halts the loop before
        the next event fires — including one scheduled at the very same
        timestamp — and leaves the remainder on the heap (visible via
        :meth:`pending`).  A stop requested before ``run`` is discarded:
        each call starts fresh.
        """
        self._stopped = False
        heap = self._heap
        pop = heappop
        processed = 0
        try:
            while heap:
                time, _, callback = pop(heap)
                self.now = time
                callback()
                processed += 1
                if self._stopped:
                    break
        finally:
            self.events_processed += processed
        return processed

    def pending(self) -> int:
        return len(self._heap)

    def clear_pending(self) -> int:
        """Drop every scheduled event (power loss): nothing pending fires.

        Returns the number of events dropped.  The clock and counters are
        untouched — a restarted simulation continues from ``now``.
        """
        dropped = len(self._heap)
        self._heap.clear()
        return dropped
