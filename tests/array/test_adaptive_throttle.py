"""AIMD rebuild throttling from the foreground SLO signal."""

import pytest

from repro.array.controller import ArrayController, LogicalAccess
from repro.array.reconstructor import AdaptiveThrottle, Reconstructor
from repro.errors import SimulationError
from repro.layouts import make_layout
from repro.sim.engine import SimulationEngine
from repro.traffic.sla import SlaTracker, SloPolicy


def tracker(p99_ms=50.0, window_ms=100.0):
    return SlaTracker(
        SloPolicy(p99_ms=p99_ms, p999_ms=4 * p99_ms), window_ms=window_ms
    )


class TestRecentOverFraction:
    def test_idle_windows_return_none(self):
        t = tracker()
        assert t.recent_over_fraction(1000.0) is None

    def test_fraction_over_the_ceiling(self):
        t = tracker(p99_ms=50.0, window_ms=100.0)
        # Window 3 (300..400ms): three fast, one slow completion.
        for response in (10.0, 20.0, 30.0, 80.0):
            t.record(350.0, response)
        assert t.recent_over_fraction(400.0) == pytest.approx(0.25)
        # The window still being open does not count.
        assert t.recent_over_fraction(399.0) is None

    def test_multi_window_lookback(self):
        t = tracker(p99_ms=50.0, window_ms=100.0)
        t.record(150.0, 80.0)   # window 1: 1/1 over
        t.record(250.0, 10.0)   # window 2: 0/1 over
        assert t.recent_over_fraction(300.0, windows=2) == pytest.approx(
            0.5
        )
        assert t.recent_over_fraction(300.0, windows=1) == 0.0

    def test_rejects_zero_windows(self):
        with pytest.raises(Exception):
            tracker().recent_over_fraction(100.0, windows=0)


class TestAdaptiveThrottle:
    def test_validation(self):
        with pytest.raises(SimulationError):
            AdaptiveThrottle(tracker(), max_ms=-1.0)

    def test_backs_off_multiplicatively_under_violation(self):
        t = tracker(p99_ms=50.0, window_ms=100.0)
        throttle = AdaptiveThrottle(t, max_ms=32.0)
        # An idle foreground sprints the gap down from the ceiling.
        for window in range(1, 15):
            throttle.current_ms(window * 100.0 + 1.0)
        assert throttle.throttle_ms == 4.0
        # Then every window breaks the p99 promise.
        gaps = []
        for window in range(15, 19):
            t.record(window * 100.0 - 50.0, 500.0)
            gaps.append(throttle.current_ms(window * 100.0 + 1.0))
        # 4 -> 8 -> 16 -> 32 -> 32 (clamped).
        assert gaps == [8.0, 16.0, 32.0, 32.0]
        assert throttle.backoffs == 4
        assert throttle.peak_ms == 32.0

    def test_recovers_additively_when_healthy(self):
        t = tracker(p99_ms=50.0, window_ms=100.0)
        throttle = AdaptiveThrottle(t, max_ms=8.0)
        for window in range(1, 4):
            t.record(window * 100.0 - 50.0, 1.0)  # fast completions
            throttle.current_ms(window * 100.0 + 1.0)
        assert throttle.throttle_ms == pytest.approx(2.0)
        assert throttle.sprints == 3

    def test_idle_foreground_sprints_to_the_floor(self):
        t = tracker()
        throttle = AdaptiveThrottle(t, max_ms=8.0)
        for window in range(1, 6):
            throttle.current_ms(window * 100.0 + 1.0)
        assert throttle.throttle_ms == 0.0
        assert throttle.sprints == 4

    def test_growth_floor_escapes_zero(self):
        t = tracker(p99_ms=50.0, window_ms=100.0)
        throttle = AdaptiveThrottle(t, max_ms=2.0)
        throttle.current_ms(101.0)  # idle: sprints to zero
        assert throttle.throttle_ms == 0.0
        t.record(150.0, 500.0)
        throttle.current_ms(201.0)
        assert throttle.throttle_ms == 0.5
        t.record(250.0, 500.0)
        throttle.current_ms(301.0)
        assert throttle.throttle_ms == 1.0

    def test_one_decision_per_window(self):
        t = tracker(p99_ms=50.0, window_ms=100.0)
        throttle = AdaptiveThrottle(t, max_ms=8.0)
        t.record(50.0, 500.0)
        first = throttle.current_ms(110.0)
        # Repeated asks inside the same window must not re-decide.
        assert throttle.current_ms(150.0) == first
        assert throttle.current_ms(199.0) == first
        assert throttle.backoffs == 1

    def test_report_shape(self):
        throttle = AdaptiveThrottle(tracker(), max_ms=2.0)
        assert throttle.report() == {
            "throttle_ms": 2.0,
            "peak_ms": 2.0,
            "backoffs": 0,
            "sprints": 0,
        }


def build_failed():
    engine = SimulationEngine()
    controller = ArrayController(engine, make_layout("pddl", 13, 4))
    controller.fail_disk(0)
    return engine, controller


class TestReconstructorIntegration:
    def test_none_is_byte_identical_to_static(self):
        def run(adaptive):
            engine, controller = build_failed()
            recon = Reconstructor(
                controller,
                rows=26,
                throttle_ms=5.0,
                adaptive_throttle=adaptive,
            )
            recon.start()
            engine.run()
            return recon.duration_ms, controller.instrumentation_record()

        assert run(None) == run(None)

    def test_idle_adaptive_beats_static_throttle(self):
        # No foreground load at all: AIMD sprints from its 20ms ceiling
        # to zero gap while the static throttle keeps paying 20ms per
        # step forever.
        def run(adaptive, throttle_ms):
            engine, controller = build_failed()
            recon = Reconstructor(
                controller,
                rows=26,
                throttle_ms=throttle_ms,
                adaptive_throttle=adaptive,
            )
            recon.start()
            engine.run()
            assert recon.steps_completed == recon.total_steps
            return recon.duration_ms

        static = run(None, 20.0)
        t = tracker(window_ms=50.0)
        adaptive = run(AdaptiveThrottle(t, max_ms=20.0), 20.0)
        assert adaptive < static

    def test_violating_foreground_slows_the_sweep(self):
        # Feed the tracker a permanently violating signal: the sweep
        # must take longer than with a healthy signal.
        def run(response_ms):
            engine, controller = build_failed()
            t = tracker(p99_ms=50.0, window_ms=50.0)
            adaptive = AdaptiveThrottle(t, max_ms=64.0)
            # A metronome keeps the signal fresh in every window.
            def tick():
                t.record(engine.now, response_ms)
                if not engine_done["finished"]:
                    engine.schedule(25.0, tick)

            engine_done = {"finished": False}
            recon = Reconstructor(
                controller, rows=26, adaptive_throttle=adaptive
            )
            recon.on_finished = lambda ms: engine_done.update(
                finished=True
            )
            engine.schedule(0.0, tick)
            recon.start()
            engine.run()
            return recon.duration_ms, adaptive

        slow_duration, slow_adaptive = run(response_ms=500.0)
        fast_duration, fast_adaptive = run(response_ms=1.0)
        assert slow_adaptive.backoffs > 0
        assert fast_adaptive.backoffs == 0
        assert slow_duration > fast_duration
