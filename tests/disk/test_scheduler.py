"""Tests for head-scheduling policies."""

import pytest

from repro.disk.drive import DiskRequest
from repro.disk.geometry import DiskGeometry, Zone
from repro.disk.scheduler import (
    FifoScheduler,
    LookScheduler,
    SstfScheduler,
    make_scheduler,
)
from repro.errors import ConfigurationError

GEOMETRY = DiskGeometry(heads=1, zones=[Zone(0, 100, 10)])


def req(cylinder, access_id=0):
    # head=1 zone spt=10 -> LBA = cylinder * 10.
    return DiskRequest(cylinder * 10, 1, False, access_id)


def queued(scheduler):
    """The queued requests, oldest first (arrival order)."""
    return [request for _, request in scheduler._queue]


class TestFifo:
    def test_order_preserved(self):
        s = FifoScheduler(GEOMETRY)
        for c in [5, 1, 9]:
            s.push(req(c))
        popped = [s.pop(0).lba for _ in range(3)]
        assert popped == [50, 10, 90]

    def test_empty_pop(self):
        assert FifoScheduler(GEOMETRY).pop(0) is None


class TestSstf:
    def test_picks_nearest(self):
        s = SstfScheduler(GEOMETRY)
        for c in [50, 10, 90]:
            s.push(req(c))
        assert s.pop(12).lba == 100   # cylinder 10 nearest to 12
        assert s.pop(60).lba == 500
        assert s.pop(60).lba == 900

    def test_tie_goes_to_older(self):
        s = SstfScheduler(GEOMETRY)
        s.push(req(20))
        s.push(req(10))
        assert s.pop(15).lba == 200  # equidistant; first pushed wins

    def test_window_bounds_inspection(self):
        s = SstfScheduler(GEOMETRY, window=2)
        s.push(req(90))
        s.push(req(80))
        s.push(req(1))   # nearest to head, but outside the window
        assert s.pop(0).lba == 800

    def test_bad_window(self):
        with pytest.raises(ConfigurationError):
            SstfScheduler(GEOMETRY, window=0)

    def test_len_and_peek(self):
        s = SstfScheduler(GEOMETRY)
        s.push(req(5))
        s.push(req(6))
        assert len(s) == 2
        assert [r.lba for r in queued(s)] == [50, 60]


class TestLook:
    def test_sweeps_upward_then_reverses(self):
        s = LookScheduler(GEOMETRY)
        for c in [30, 10, 50]:
            s.push(req(c))
        assert s.pop(20).lba == 300   # upward: 30 first
        assert s.pop(30).lba == 500   # continue upward
        assert s.pop(50).lba == 100   # reverse

    def test_empty(self):
        assert LookScheduler(GEOMETRY).pop(0) is None


class TestFactory:
    def test_names(self):
        assert make_scheduler("sstf", GEOMETRY).name == "sstf"
        assert make_scheduler("FIFO", GEOMETRY).name == "fifo"
        assert make_scheduler("look", GEOMETRY).name == "look"

    def test_unknown(self):
        with pytest.raises(ConfigurationError):
            make_scheduler("cfq", GEOMETRY)
