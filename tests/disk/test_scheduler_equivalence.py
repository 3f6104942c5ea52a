"""Property test: deque-backed schedulers == the original list-based ones.

The schedulers were rewritten from ``List`` + ``pop(0)``/``pop(i)`` to
:class:`collections.deque` with manual windowed argmins (see
``src/repro/disk/scheduler.py``).  Pop order is part of the simulator's
determinism contract — the golden traces pin it end-to-end — so this
test pins it directly: hypothesis drives random push/pop interleavings
through each production scheduler and through a faithful copy of the
pre-rewrite list implementation, and the two must agree on every pop
(including tie-breaks) and on the surviving queue order.
"""

from typing import List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk.drive import DiskRequest
from repro.disk.geometry import DiskGeometry, Zone
from repro.disk.scheduler import make_scheduler
from tests.disk.test_scheduler import queued

GEOMETRY = DiskGeometry(heads=2, zones=[Zone(0, 60, 12), Zone(60, 60, 8)])


# ----------------------------------------------------------------------
# Reference models: the original list-based implementations, verbatim
# modulo naming.
# ----------------------------------------------------------------------


class _ListScheduler:
    def __init__(self, geometry: DiskGeometry):
        self.geometry = geometry
        self._queue: List[Tuple[int, DiskRequest]] = []

    def push(self, request: DiskRequest) -> None:
        cylinder = self.geometry.lba_to_chs(request.lba).cylinder
        self._queue.append((cylinder, request))

    def peek_all(self) -> List[DiskRequest]:
        return [req for _, req in self._queue]


class _ListFifo(_ListScheduler):
    def pop(self, current_cylinder: int) -> Optional[DiskRequest]:
        if not self._queue:
            return None
        return self._queue.pop(0)[1]


class _ListSstf(_ListScheduler):
    def __init__(self, geometry: DiskGeometry, window: int):
        super().__init__(geometry)
        self.window = window

    def pop(self, current_cylinder: int) -> Optional[DiskRequest]:
        if not self._queue:
            return None
        candidates = self._queue[: self.window]
        best_index = min(
            range(len(candidates)),
            key=lambda i: (abs(candidates[i][0] - current_cylinder), i),
        )
        return self._queue.pop(best_index)[1]


class _ListLook(_ListScheduler):
    def __init__(self, geometry: DiskGeometry):
        super().__init__(geometry)
        self._direction = 1

    def pop(self, current_cylinder: int) -> Optional[DiskRequest]:
        if not self._queue:
            return None
        ahead = [
            (cyl, i)
            for i, (cyl, _) in enumerate(self._queue)
            if (cyl - current_cylinder) * self._direction >= 0
        ]
        if not ahead:
            self._direction = -self._direction
            ahead = [(cyl, i) for i, (cyl, _) in enumerate(self._queue)]
        _, index = min(
            ahead, key=lambda item: abs(item[0] - current_cylinder)
        )
        return self._queue.pop(index)[1]


# ----------------------------------------------------------------------
# The property.
# ----------------------------------------------------------------------

#: ("push", lba) or ("pop", current_cylinder).
_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("push"),
            st.integers(0, GEOMETRY.total_sectors - 1),
        ),
        st.tuples(st.just("pop"), st.integers(0, GEOMETRY.cylinders - 1)),
    ),
    max_size=80,
)


def _run_both(scheduler, reference, operations) -> None:
    next_id = 0
    for op, value in operations:
        if op == "push":
            request = DiskRequest(
                lba=value, sectors=1, is_write=False, access_id=next_id
            )
            next_id += 1
            scheduler.push(request)
            reference.push(request)
        else:
            got = scheduler.pop(value)
            want = reference.pop(value)
            assert got is want, (
                f"pop(cylinder={value}) diverged:"
                f" got {got}, reference {want}"
            )
    assert queued(scheduler) == reference.peek_all()


@settings(deadline=None)
@given(operations=_OPS)
def test_fifo_matches_list_reference(operations):
    _run_both(
        make_scheduler("fifo", GEOMETRY), _ListFifo(GEOMETRY), operations
    )


@settings(deadline=None)
@given(operations=_OPS, window=st.integers(1, 6))
def test_sstf_matches_list_reference(operations, window):
    _run_both(
        make_scheduler("sstf", GEOMETRY, window=window),
        _ListSstf(GEOMETRY, window),
        operations,
    )


@settings(deadline=None)
@given(operations=_OPS)
def test_look_matches_list_reference(operations):
    _run_both(
        make_scheduler("look", GEOMETRY), _ListLook(GEOMETRY), operations
    )


def test_sstf_tie_goes_to_oldest():
    """Equidistant candidates: the earlier-queued request wins."""
    scheduler = make_scheduler("sstf", GEOMETRY)
    spt = 12  # zone 0: cylinders 0..59, 2 heads
    per_cylinder = 2 * spt
    first = DiskRequest(10 * per_cylinder, 1, False, access_id=1)
    second = DiskRequest(30 * per_cylinder, 1, False, access_id=2)
    scheduler.push(first)
    scheduler.push(second)
    assert scheduler.pop(20) is first
    assert scheduler.pop(20) is second
