"""Head-scheduling policies.

Table 2: "dynamic request reordering following the shortest-seek-time-first
(SSTF) policy ... on 20-request queue".  FIFO and LOOK are provided for the
ablation benchmarks.

The shared queue is a :class:`collections.deque`: FIFO pop is O(1)
instead of ``list.pop(0)``'s O(n), and the windowed policies only ever
index the first ``window`` entries (cheap at deque ends).  Pop order is
bit-identical to the original list implementation — ties still go to the
oldest queued request — which the hypothesis equivalence test in
``tests/disk/test_scheduler_equivalence.py`` pins against a list-based
reference model.
"""

from __future__ import annotations

import abc
from collections import deque
from typing import Deque, Optional, Tuple

from repro.disk.drive import DiskRequest
from repro.disk.geometry import DiskGeometry
from repro.errors import ConfigurationError


class Scheduler(abc.ABC):
    """A per-disk request queue with a pick-next policy."""

    name: str = "abstract"

    #: True when popping a lone queued request is equivalent to FIFO pop
    #: *and* leaves no policy state behind.  Lets the disk server skip
    #: the push/pop round trip for a request arriving at an idle, empty
    #: server.  LOOK must opt out: even a single-item pop can flip its
    #: sweep direction.
    pops_lone_item_fifo: bool = True

    def __init__(self, geometry: DiskGeometry):
        self.geometry = geometry
        # (cylinder, request), oldest first.
        self._queue: Deque[Tuple[int, DiskRequest]] = deque()
        # Shared per-geometry LBA -> cylinder memo (one dict hit per
        # push instead of the full CHS translation + attribute hop).
        self._cylinder_cache = geometry._cylinder_cache

    def push(self, request: DiskRequest) -> None:
        lba = request.lba
        cache = self._cylinder_cache
        cylinder = cache.get(lba)
        if cylinder is None:
            cylinder = self.geometry.lba_to_chs(lba).cylinder
            cache[lba] = cylinder
        self._queue.append((cylinder, request))

    def __len__(self) -> int:
        return len(self._queue)

    def clear(self) -> int:
        """Drop every queued request (controller crash); returns count."""
        dropped = len(self._queue)
        self._queue.clear()
        return dropped

    @abc.abstractmethod
    def pop(self, current_cylinder: int) -> Optional[DiskRequest]:
        """Remove and return the next request, or None when empty."""


class FifoScheduler(Scheduler):
    """First come, first served."""

    name = "fifo"

    def pop(self, current_cylinder: int) -> Optional[DiskRequest]:
        if not self._queue:
            return None
        return self._queue.popleft()[1]


class SstfScheduler(Scheduler):
    """Shortest seek time first over a bounded inspection window.

    Only the oldest ``window`` queued requests are candidates (Table 2's
    "20-request queue"), which bounds starvation the way the paper's
    simulator did.
    """

    name = "sstf"

    def __init__(self, geometry: DiskGeometry, window: int = 20):
        super().__init__(geometry)
        if window < 1:
            raise ConfigurationError(f"window must be >= 1, got {window}")
        self.window = window

    def pop(self, current_cylinder: int) -> Optional[DiskRequest]:
        queue = self._queue
        if not queue:
            return None
        if len(queue) == 1:
            # Depth-one queues dominate moderate loads: nothing to rank.
            return queue.popleft()[1]
        # Manual windowed argmin — no slice copy, no per-call key lambda.
        # Strict < keeps the oldest request on distance ties, matching
        # the original ``min(..., key=(distance, index))``.
        window = self.window
        best_index = -1
        best_distance = -1
        for i, (cylinder, _) in enumerate(queue):
            if i >= window:
                break
            distance = cylinder - current_cylinder
            if distance < 0:
                distance = -distance
            if best_index < 0 or distance < best_distance:
                best_index = i
                best_distance = distance
                if distance == 0:
                    break
        if best_index == 0:
            return queue.popleft()[1]
        request = queue[best_index][1]
        del queue[best_index]
        return request


class LookScheduler(Scheduler):
    """Elevator (LOOK): sweep in one direction, reverse at the last request."""

    name = "look"

    pops_lone_item_fifo = False  # a lone pop may flip the sweep direction

    def __init__(self, geometry: DiskGeometry):
        super().__init__(geometry)
        self._direction = 1

    def _nearest(self, current_cylinder: int, ahead_only: bool) -> int:
        """Index of the closest queued request (first wins ties);
        ``ahead_only`` restricts to the current sweep direction.
        Returns -1 when no candidate qualifies."""
        direction = self._direction
        best_index = -1
        best_distance = -1
        for i, (cylinder, _) in enumerate(self._queue):
            delta = cylinder - current_cylinder
            if ahead_only and delta * direction < 0:
                continue
            distance = -delta if delta < 0 else delta
            if best_index < 0 or distance < best_distance:
                best_index = i
                best_distance = distance
        return best_index

    def pop(self, current_cylinder: int) -> Optional[DiskRequest]:
        queue = self._queue
        if not queue:
            return None
        index = self._nearest(current_cylinder, ahead_only=True)
        if index < 0:
            self._direction = -self._direction
            index = self._nearest(current_cylinder, ahead_only=False)
        if index == 0:
            return queue.popleft()[1]
        request = queue[index][1]
        del queue[index]
        return request


def make_scheduler(
    name: str, geometry: DiskGeometry, window: int = 20
) -> Scheduler:
    """Factory by policy name: "sstf", "fifo", or "look"."""
    key = name.lower()
    if key == "sstf":
        return SstfScheduler(geometry, window=window)
    if key == "fifo":
        return FifoScheduler(geometry)
    if key == "look":
        return LookScheduler(geometry)
    raise ConfigurationError(f"unknown scheduler {name!r}")
