"""Admission queue and overload detector semantics."""

import pytest

from repro.array.controller import LogicalAccess
from repro.errors import ConfigurationError
from repro.sim.engine import SimulationEngine
from repro.sim.instrument import DepthTimeline
from repro.traffic.admission import (
    AdmissionQueue,
    OpenLoopRun,
    OverloadDetector,
)
from repro.workload.spec import AccessSpec


class StubController:
    """Fixed-service-time array: completes each access after ``service_ms``."""

    def __init__(self, engine, service_ms=10.0):
        self.engine = engine
        self.service_ms = service_ms

    def submit(self, access, on_complete):
        self.engine.schedule(
            self.service_ms, lambda: on_complete(access, self.service_ms)
        )


class FixedGap:
    """An arrival every ``gap_ms``."""

    def __init__(self, gap_ms=1.0):
        self.gap_ms = gap_ms

    def next_delay_ms(self):
        return self.gap_ms


def access(i):
    return LogicalAccess(
        access_id=i, first_unit=i, unit_count=1, is_write=False
    )


def harness(depth=2, slots=1, service_ms=10.0):
    engine = SimulationEngine()
    responses = []
    queue = AdmissionQueue(
        StubController(engine, service_ms),
        lambda a, total, wait: responses.append((a.access_id, total, wait)),
        depth=depth,
        service_slots=slots,
        timeline=DepthTimeline(),
    )
    return engine, queue, responses


class TestAdmissionQueue:
    def test_serves_immediately_when_slots_free(self):
        engine, queue, responses = harness(slots=2)
        assert queue.offer(access(0))
        assert queue.offer(access(1))
        assert queue.in_service == 2
        assert not queue._waiting
        engine.run()
        assert [r[0] for r in responses] == [0, 1]
        assert all(wait == 0.0 for _, _, wait in responses)

    def test_sheds_beyond_depth_and_accounts_for_it(self):
        engine, queue, responses = harness(depth=2, slots=1)
        admitted = [queue.offer(access(i)) for i in range(5)]
        # 1 in service, 2 waiting, 2 shed.
        assert admitted == [True, True, True, False, False]
        stats = queue.stats()
        assert stats["offered"] == 5
        assert stats["admitted"] == 3
        assert stats["shed"] == 2
        engine.run()
        assert queue.stats()["completed"] == 3
        assert queue.stats()["completed"] + stats["shed"] == 5

    def test_fifo_order_and_admission_wait_in_latency(self):
        engine, queue, responses = harness(depth=8, slots=1, service_ms=10.0)
        for i in range(3):
            queue.offer(access(i))
        engine.run()
        assert [r[0] for r in responses] == [0, 1, 2]
        # Offer-to-completion latency includes the queue wait.
        assert [r[1] for r in responses] == [10.0, 20.0, 30.0]
        assert [r[2] for r in responses] == [0.0, 10.0, 20.0]
        assert queue.stats()["mean_wait_ms"] == pytest.approx(10.0)

    def test_no_head_of_line_bypass(self):
        """A free slot must go to the FIFO head, not a fresh arrival."""
        engine, queue, responses = harness(depth=8, slots=1)
        queue.offer(access(0))
        queue.offer(access(1))  # waits
        engine.schedule(15.0, lambda: queue.offer(access(2)))
        engine.run()
        assert [r[0] for r in responses] == [0, 1, 2]

    def test_queue_high_water(self):
        engine, queue, _ = harness(depth=8, slots=1)
        for i in range(5):
            queue.offer(access(i))
        assert queue.stats()["queue_high_water"] == 4
        engine.run()
        assert not queue._waiting

    def test_validation(self):
        engine = SimulationEngine()
        controller = StubController(engine)
        with pytest.raises(ConfigurationError):
            AdmissionQueue(controller, lambda *a: None, depth=0)
        with pytest.raises(ConfigurationError):
            AdmissionQueue(controller, lambda *a: None, service_slots=0)


def open_loop(count, depth=2, slots=1, **options):
    engine = SimulationEngine()
    controller = StubController(engine)
    controller.addressable_data_units = 100
    responses = []
    run = OpenLoopRun(
        controller,
        FixedGap(),
        count,
        AccessSpec(16, False),
        "loc",
        lambda a, total, wait: responses.append(a),
        depth=depth,
        service_slots=slots,
        **options,
    )
    return engine, run, responses


class TestOpenLoopRun:
    def test_stops_once_every_arrival_is_resolved(self):
        # Arrivals at 1..6 ms: one served, two wait, three shed; the
        # waiting two finish at 21 and 31 ms.
        engine, run, responses = open_loop(6)
        run.run(0.0, horizon_ms=1000.0)
        assert run.queue.shed == 3
        assert [a.access_id for a in responses] == [0, 1, 2]
        assert run.resolved == 6
        assert engine.now == 31.0

    def test_horizon_truncates(self):
        engine, run, responses = open_loop(6)
        run.run(0.0, horizon_ms=15.0)
        assert engine.now == 15.0
        assert run.resolved == 4  # one completion, three shed

    def test_done_holds_the_stop_until_rechecked(self):
        state = {"done": False}
        engine, run, _ = open_loop(2, done=lambda: state["done"])

        def finish():
            state["done"] = True
            run.check_stop()

        engine.schedule_at(100.0, finish)
        run.run(0.0, horizon_ms=1000.0)
        assert run.resolved == 2
        assert engine.now == 100.0

    def test_accesses_follow_the_spec_and_region(self):
        engine, run, responses = open_loop(40, slots=40, total_units=10)
        run.run(0.0, horizon_ms=1000.0)
        assert len(responses) == 40
        for a in responses:
            assert not a.is_write
            assert a.unit_count == 2
            assert 0 <= a.first_unit <= 8

    def test_rw_stream_mixes_reads_and_writes(self):
        engine, run, responses = open_loop(
            40, slots=40, rw_stream="rw", read_fraction=0.5
        )
        run.run(0.0, horizon_ms=1000.0)
        writes = sum(a.is_write for a in responses)
        assert 0 < writes < 40


class TestOverloadDetector:
    def test_sustained_growth_latches(self):
        detector = OverloadDetector(window_ms=100.0, windows=3)
        # Window minima: 1, 2, 3, 4 -> three growth windows in a row.
        for window, depth in enumerate([1, 2, 3, 4]):
            detector.sample(window * 100.0 + 50.0, depth)
        detector.sample(450.0, 4)  # close window 4
        report = detector.report()
        assert report["overloaded"] is True
        assert report["detected_at_ms"] == 400.0
        assert report["max_growth_streak"] >= 3

    def test_draining_queue_resets_the_streak(self):
        detector = OverloadDetector(window_ms=100.0, windows=3)
        # Grows twice, drains to zero, grows twice again: never 3 in a row.
        for window, depth in enumerate([1, 2, 3, 0, 1, 2]):
            detector.sample(window * 100.0 + 50.0, depth)
        detector.sample(650.0, 2)
        report = detector.report()
        assert report["overloaded"] is False
        assert report["detected_at_ms"] is None
        assert report["max_growth_streak"] == 2

    def test_plateau_is_not_growth(self):
        detector = OverloadDetector(window_ms=100.0, windows=2)
        for window, depth in enumerate([5, 5, 5, 5]):
            detector.sample(window * 100.0 + 50.0, depth)
        detector.sample(450.0, 5)
        assert detector.report()["overloaded"] is False

    def test_sampleless_windows_inherit_last_depth(self):
        detector = OverloadDetector(window_ms=100.0, windows=3)
        detector.sample(50.0, 2)
        # Jump far ahead: the empty windows in between hold depth 2
        # (no growth), so the streak must not fire.
        detector.sample(850.0, 3)
        detector.sample(950.0, 4)
        assert detector.report()["overloaded"] is False

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            OverloadDetector(window_ms=0.0)
        with pytest.raises(ConfigurationError):
            OverloadDetector(windows=0)


class TestDepthTimeline:
    def test_coalesces_repeats_and_tracks_high_water(self):
        timeline = DepthTimeline()
        timeline.record(0.0, 1)
        timeline.record(1.0, 1)  # coalesced
        timeline.record(2.0, 3)
        timeline.record(3.0, 0)
        assert timeline.points == [[0.0, 1], [2.0, 3], [3.0, 0]]
        assert timeline.high_water == 3
        assert len(timeline) == 3
