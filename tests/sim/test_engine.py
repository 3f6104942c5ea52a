"""Tests for the discrete-event engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.engine import SimulationEngine
from repro.sim.instrument import engine_snapshot
from repro.sim.random import RandomStreams


class TestScheduling:
    def test_time_order(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule(5.0, lambda: fired.append("b"))
        engine.schedule(1.0, lambda: fired.append("a"))
        engine.schedule(9.0, lambda: fired.append("c"))
        engine.run()
        assert fired == ["a", "b", "c"]
        assert engine.now == 9.0

    def test_fifo_tie_break(self):
        engine = SimulationEngine()
        fired = []
        for i in range(5):
            engine.schedule(1.0, lambda i=i: fired.append(i))
        engine.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_nested_scheduling(self):
        engine = SimulationEngine()
        fired = []

        def first():
            fired.append(engine.now)
            engine.schedule(2.0, lambda: fired.append(engine.now))

        engine.schedule(1.0, first)
        engine.run()
        assert fired == [1.0, 3.0]

    def test_negative_delay_rejected(self):
        engine = SimulationEngine()
        with pytest.raises(SimulationError):
            engine.schedule(-1.0, lambda: None)

    def test_schedule_into_past_rejected(self):
        engine = SimulationEngine()
        engine.schedule(5.0, lambda: engine.schedule_at(1.0, lambda: None))
        with pytest.raises(SimulationError):
            engine.run()

    @pytest.mark.parametrize("delay", [float("nan"), float("inf")])
    def test_non_finite_delay_rejected(self, delay):
        engine = SimulationEngine()
        with pytest.raises(SimulationError):
            engine.schedule(delay, lambda: None)
        assert engine.pending() == 0

    @pytest.mark.parametrize("time", [float("nan"), float("inf")])
    def test_non_finite_time_rejected(self, time):
        engine = SimulationEngine()
        with pytest.raises(SimulationError):
            engine.schedule_at(time, lambda: None)
        assert engine.pending() == 0

    def test_nan_event_cannot_reach_the_clock(self):
        # Once queued, a NaN event fired out of order and set `now` to
        # NaN; the rejection keeps the clock on the finite events.
        engine = SimulationEngine()
        fired = []
        engine.schedule(2.0, lambda: fired.append(engine.now))
        with pytest.raises(SimulationError):
            engine.schedule(float("nan"), lambda: fired.append(engine.now))
        engine.schedule(1.0, lambda: fired.append(engine.now))
        engine.run()
        assert fired == [1.0, 2.0]
        assert engine.now == 2.0


class TestRunControl:
    def test_stop(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule(1.0, lambda: (fired.append(1), engine.stop()))
        engine.schedule(2.0, lambda: fired.append(2))
        engine.run()
        assert fired == [1]
        assert engine.pending() == 1

    def test_stop_event_is_a_horizon(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule(1.0, lambda: fired.append(1))
        engine.schedule(10.0, lambda: fired.append(10))
        engine.schedule_at(5.0, engine.stop)
        assert engine.run() == 2  # the stop event is an event too
        assert fired == [1]
        assert engine.now == 5.0
        assert engine.pending() == 1
        engine.run()
        assert fired == [1, 10]

    def test_horizon_ties_fire_in_schedule_order(self):
        # A stop event obeys the (time, seq) contract like any other:
        # events at the horizon scheduled before it fire, later ones wait.
        engine = SimulationEngine()
        fired = []
        engine.schedule_at(5.0, lambda: fired.append("before"))
        engine.schedule_at(5.0, engine.stop)
        engine.schedule_at(5.0, lambda: fired.append("after"))
        assert engine.run() == 2
        assert fired == ["before"]
        assert engine.pending() == 1

    def test_events_processed_counter(self):
        engine = SimulationEngine()
        for i in range(4):
            engine.schedule(1.0, lambda: None)
        engine.run()
        assert engine.events_processed == 4

    def test_run_returns_processed_count(self):
        engine = SimulationEngine()
        for i in range(4):
            engine.schedule(float(i), lambda: None)
        engine.schedule(2.0, engine.stop)  # after the t=2 event: FIFO
        assert engine.run() == 4
        assert engine.run() == 1
        assert engine.events_processed == 5

    def test_stop_in_callback_halts_before_same_timestamp_event(self):
        # Regression: a stop() issued from a callback must be honoured
        # before the *next* event fires, even one scheduled at the very
        # same timestamp, and the un-fired events must stay pending.
        engine = SimulationEngine()
        fired = []
        engine.schedule(2.0, lambda: (fired.append("a"), engine.stop()))
        engine.schedule(2.0, lambda: fired.append("b"))
        engine.schedule(2.0, lambda: fired.append("c"))
        processed = engine.run()
        assert fired == ["a"]
        assert processed == 1
        assert engine.pending() == 2
        assert engine.now == 2.0
        # The survivors are intact: a fresh run() fires them in order.
        assert engine.run() == 2
        assert fired == ["a", "b", "c"]
        assert engine.pending() == 0

    def test_stop_before_run_is_discarded(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule(1.0, lambda: fired.append(1))
        engine.stop()
        assert engine.run() == 1  # each run() starts fresh
        assert fired == [1]

    def test_clear_pending_drops_everything(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule(1.0, lambda: (fired.append(1), engine.stop()))
        engine.schedule(2.0, lambda: fired.append(2))
        engine.schedule(2.0, lambda: fired.append(3))
        engine.run()
        assert engine.clear_pending() == 2
        assert engine.pending() == 0
        assert engine.run() == 0  # nothing dropped ever fires
        assert fired == [1]
        # Clock and counters are untouched: a restart continues from now.
        assert engine.now == 1.0
        assert engine.events_processed == 1
        engine.schedule(1.0, lambda: fired.append(engine.now))
        engine.run()
        assert fired == [1, 2.0]

    def test_heap_high_water(self):
        engine = SimulationEngine()
        assert engine.heap_high_water == 0
        for i in range(5):
            engine.schedule(float(i + 1), lambda: None)
        engine.run()
        assert engine.heap_high_water == 5
        assert engine.pending() == 0

    def test_engine_snapshot_reports_counters(self):
        engine = SimulationEngine()
        engine.schedule(2.0, lambda: None)
        engine.schedule(2.0, engine.stop)
        engine.schedule(9.0, lambda: None)
        engine.run()
        assert engine_snapshot(engine) == {
            "events_processed": 2,
            "heap_high_water": 3,
            "pending": 1,
            "now_ms": 2.0,
        }


class _ReferenceScheduler:
    """The engine's contract stated naively: pop ``min((time, seq))``
    from a plain list, stop after the event that asked for it."""

    def __init__(self):
        self.now = 0.0
        self._events = []
        self._seq = 0
        self._stopped = False

    def schedule(self, delay, callback):
        self._seq += 1
        self._events.append((self.now + delay, self._seq, callback))

    def stop(self):
        self._stopped = True

    def run(self):
        self._stopped = False
        events = self._events
        processed = 0
        while events and not self._stopped:
            i = min(range(len(events)), key=lambda j: events[j][:2])
            self.now, _, callback = events.pop(i)
            callback()
            processed += 1
        return processed

    def pending(self):
        return len(self._events)


# Delays drawn from a small grid on purpose: collisions (equal fire
# times) are where the seq tie-break matters, and a continuous float
# strategy almost never produces them.
_DELAYS = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 4.0, 7.25, 64.0, 1000.0]),
    st.floats(min_value=0.0, max_value=500.0,
              allow_nan=False, allow_infinity=False),
)

#: One segment: (delay, child-delays, stop?) per scheduled event, then a
#: drain.  Stop callbacks exercise the halt-before-same-timestamp contract
#: and leave survivors for the next segment.
_SEGMENT = st.lists(
    st.tuples(_DELAYS, st.lists(_DELAYS, max_size=2), st.booleans()),
    max_size=8,
)

_PROGRAM = st.lists(_SEGMENT, min_size=1, max_size=3)


def _interpret(engine, program):
    """Run ``program`` on ``engine``; return every observable output."""
    fired = []

    def make_callback(tag, spawns, stop):
        def callback():
            fired.append((engine.now, tag))
            for j, delay in enumerate(spawns):
                engine.schedule(delay, make_callback((tag, j), [], False))
            if stop:
                engine.stop()

        return callback

    runs = []
    for index, segment in enumerate(program):
        for k, (delay, spawns, stop) in enumerate(segment):
            engine.schedule(delay, make_callback((index, k), spawns, stop))
        runs.append((engine.run(), engine.pending(), engine.now))
    return fired, runs


class TestRandomPrograms:
    @settings(max_examples=200, deadline=None)
    @given(program=_PROGRAM)
    def test_fires_in_time_then_schedule_order(self, program):
        assert _interpret(SimulationEngine(), program) == _interpret(
            _ReferenceScheduler(), program
        )


class TestRandomStreams:
    def test_reproducible(self):
        a = RandomStreams(7).get("x").random()
        b = RandomStreams(7).get("x").random()
        assert a == b

    def test_streams_independent(self):
        streams = RandomStreams(7)
        x = streams.get("x")
        first = streams.get("y").random()
        x.random()  # consuming x must not perturb y
        assert RandomStreams(7).get("y").random() == first

    def test_same_stream_returned(self):
        streams = RandomStreams(7)
        assert streams.get("x") is streams.get("x")
