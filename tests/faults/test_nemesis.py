"""Tests for the nemesis schedule grammar and fault tracker."""

import pytest

from repro.errors import ConfigurationError
from repro.faults.nemesis import (
    EVENT_KINDS,
    ActiveFaultTracker,
    NemesisEvent,
    NemesisSchedule,
)


def drawn(seed=7, **kwargs):
    return NemesisSchedule.draw(seed, n_disks=13, rows=26, **kwargs)


class TestDraw:
    def test_always_contains_a_disk_failure(self):
        for seed in range(30):
            kinds = [e.kind for e in drawn(seed).events]
            assert "disk-failure" in kinds

    def test_events_are_time_ordered_inside_the_horizon(self):
        for seed in range(20):
            schedule = drawn(seed)
            times = [e.time_ms for e in schedule.events]
            assert times == sorted(times)
            assert all(0 <= t < schedule.horizon_ms for t in times)

    def test_failure_disks_distinct(self):
        for seed in range(30):
            disks = [
                e.disk for e in drawn(seed).events
                if e.kind == "disk-failure"
            ]
            assert len(disks) == len(set(disks))

    def test_crash_gap_respected(self):
        for seed in range(40):
            crashes = [
                e.time_ms for e in drawn(seed).events if e.kind == "crash"
            ]
            for a, b in zip(crashes, crashes[1:]):
                assert b - a >= drawn(seed).min_crash_gap_ms

    def test_caps_respected(self):
        schedule = drawn(
            11, max_disk_failures=1, max_crashes=0, max_lse_bursts=0,
            max_storms=0, max_scrub_windows=0,
        )
        assert [e.kind for e in schedule.events] == ["disk-failure"]

    def test_every_kind_eventually_drawn(self):
        # failslow and corruption-burst are opt-in (caps default to 0
        # for schedule-replay compatibility), so enable them for the
        # coverage sweep.
        seen = set()
        for seed in range(60):
            seen.update(
                e.kind
                for e in drawn(
                    seed, max_failslow=2, max_corruption_bursts=2
                ).events
            )
        assert seen == set(EVENT_KINDS)

    def test_zero_cap_keeps_old_schedules_byte_identical(self):
        # The corruption-burst block draws nothing at its zero-cap
        # default, so every pre-existing seed replays unchanged.
        for seed in range(20):
            old = drawn(seed)
            explicit = drawn(
                seed, max_corruption_bursts=0, corruption_rate=0.05
            )
            assert old.events == explicit.events

    def test_corruption_burst_draw_and_validation(self):
        schedule = drawn(3, max_corruption_bursts=3)
        bursts = [
            e for e in schedule.events if e.kind == "corruption-burst"
        ]
        for burst in bursts:
            assert 0 <= burst.disk < 13
            assert 0.0 < burst.rate <= 0.5
            assert burst.duration_ms > 0
        # Per-disk windows never overlap by construction.
        ends: dict = {}
        for burst in bursts:
            assert burst.time_ms >= ends.get(burst.disk, 0.0)
            ends[burst.disk] = burst.time_ms + burst.duration_ms

    def test_corruption_rate_validated(self):
        with pytest.raises(ConfigurationError):
            drawn(0, max_corruption_bursts=1, corruption_rate=0.0)
        with pytest.raises(ConfigurationError):
            drawn(0, max_corruption_bursts=1, corruption_rate=0.9)

    def test_bad_envelope_rejected(self):
        with pytest.raises(ConfigurationError):
            drawn(0, max_disk_failures=0)
        with pytest.raises(ConfigurationError):
            drawn(0, max_disk_failures=14)
        with pytest.raises(ConfigurationError):
            drawn(0, storm_rate=1.5)
        with pytest.raises(ConfigurationError):
            drawn(0, horizon_ms=0.0)


class TestFromEventsValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            NemesisSchedule.from_events(
                [NemesisEvent(time_ms=10.0, kind="meteor-strike")],
                n_disks=13, rows=26,
            )

    def test_failure_disk_out_of_range(self):
        with pytest.raises(ConfigurationError, match="outside"):
            NemesisSchedule.from_events(
                [NemesisEvent(time_ms=10.0, kind="disk-failure", disk=13)],
                n_disks=13, rows=26,
            )

    def test_same_disk_cannot_fail_twice(self):
        with pytest.raises(ConfigurationError, match="twice"):
            NemesisSchedule.from_events(
                [
                    NemesisEvent(time_ms=10.0, kind="disk-failure", disk=3),
                    NemesisEvent(time_ms=90.0, kind="disk-failure", disk=3),
                ],
                n_disks=13, rows=26,
            )

    def test_crashes_too_close(self):
        with pytest.raises(ConfigurationError, match="closer"):
            NemesisSchedule.from_events(
                [
                    NemesisEvent(time_ms=100.0, kind="crash"),
                    NemesisEvent(time_ms=200.0, kind="crash"),
                ],
                n_disks=13, rows=26,
            )

    def test_burst_cell_outside_domain(self):
        with pytest.raises(ConfigurationError, match="domain"):
            NemesisSchedule.from_events(
                [NemesisEvent(time_ms=10.0, kind="lse-burst",
                              cells=((0, 26),))],
                n_disks=13, rows=26,
            )

    def test_overlapping_storms(self):
        with pytest.raises(ConfigurationError, match="verlapping storm"):
            NemesisSchedule.from_events(
                [
                    NemesisEvent(time_ms=100.0, kind="transient-storm",
                                 rate=0.01, duration_ms=1000.0),
                    NemesisEvent(time_ms=500.0, kind="transient-storm",
                                 rate=0.01, duration_ms=100.0),
                ],
                n_disks=13, rows=26,
            )

    def test_corruption_burst_disk_out_of_range(self):
        with pytest.raises(ConfigurationError, match="outside"):
            NemesisSchedule.from_events(
                [NemesisEvent(time_ms=10.0, kind="corruption-burst",
                              disk=13, rate=0.1, duration_ms=100.0)],
                n_disks=13, rows=26,
            )

    def test_corruption_burst_rate_bounds(self):
        with pytest.raises(ConfigurationError, match="rate"):
            NemesisSchedule.from_events(
                [NemesisEvent(time_ms=10.0, kind="corruption-burst",
                              disk=0, rate=0.6, duration_ms=100.0)],
                n_disks=13, rows=26,
            )

    def test_overlapping_corruption_bursts_same_disk(self):
        with pytest.raises(
            ConfigurationError, match="overlapping corruption-burst"
        ):
            NemesisSchedule.from_events(
                [
                    NemesisEvent(time_ms=100.0, kind="corruption-burst",
                                 disk=2, rate=0.1, duration_ms=1000.0),
                    NemesisEvent(time_ms=500.0, kind="corruption-burst",
                                 disk=2, rate=0.1, duration_ms=100.0),
                ],
                n_disks=13, rows=26,
            )

    def test_corruption_bursts_may_overlap_across_disks(self):
        NemesisSchedule.from_events(
            [
                NemesisEvent(time_ms=100.0, kind="corruption-burst",
                             disk=2, rate=0.1, duration_ms=1000.0),
                NemesisEvent(time_ms=500.0, kind="corruption-burst",
                             disk=3, rate=0.1, duration_ms=1000.0),
            ],
            n_disks=13, rows=26,
        )

    def test_storm_may_overlap_scrub_window(self):
        """Different window kinds only exclude their own kind."""
        NemesisSchedule.from_events(
            [
                NemesisEvent(time_ms=100.0, kind="transient-storm",
                             rate=0.01, duration_ms=1000.0),
                NemesisEvent(time_ms=500.0, kind="scrub-off",
                             duration_ms=1000.0),
            ],
            n_disks=13, rows=26,
        )

    def test_event_outside_horizon(self):
        with pytest.raises(ConfigurationError, match="outside"):
            NemesisSchedule.from_events(
                [NemesisEvent(time_ms=30000.0, kind="crash")],
                n_disks=13, rows=26,
            )

    def test_window_kind_needs_duration(self):
        with pytest.raises(ConfigurationError, match="duration"):
            NemesisSchedule.from_events(
                [NemesisEvent(time_ms=10.0, kind="scrub-off")],
                n_disks=13, rows=26,
            )
        with pytest.raises(ConfigurationError, match="duration"):
            NemesisSchedule.from_events(
                [NemesisEvent(time_ms=10.0, kind="crash",
                              duration_ms=100.0)],
                n_disks=13, rows=26,
            )


class TestSerialization:
    def test_hash_distinguishes_schedules(self):
        assert drawn(1).content_hash() != drawn(2).content_hash()


class TestActiveFaultTracker:
    def test_begin_heal_lifecycle(self):
        tracker = ActiveFaultTracker()
        token = tracker.begin("crash", 100.0, detail="first")
        assert tracker.is_active("crash")
        assert tracker.active_kinds() == ["crash"]
        tracker.heal(token, 250.0)
        assert not tracker.is_active("crash")
        assert tracker.history == [
            {"kind": "crash", "begun_ms": 100.0, "healed_ms": 250.0,
             "detail": "first"}
        ]

    def test_double_heal_rejected(self):
        tracker = ActiveFaultTracker()
        token = tracker.begin("crash", 1.0)
        tracker.heal(token, 2.0)
        with pytest.raises(ConfigurationError):
            tracker.heal(token, 3.0)

    def test_concurrent_faults_of_different_kinds(self):
        tracker = ActiveFaultTracker()
        crash = tracker.begin("crash", 1.0)
        tracker.begin("disk-failure", 2.0)
        assert tracker.active_kinds() == ["crash", "disk-failure"]
        tracker.heal(crash, 3.0)
        assert tracker.active_kinds() == ["disk-failure"]

    def test_instantaneous_record(self):
        tracker = ActiveFaultTracker()
        tracker.record("lse-burst", 7.0, detail="3 cell(s)")
        assert not tracker.is_active("lse-burst")
        entry = tracker.history[0]
        assert entry["begun_ms"] == entry["healed_ms"] == 7.0

    def test_to_dict_reports_unhealed_faults(self):
        tracker = ActiveFaultTracker()
        tracker.begin("disk-failure", 5.0)
        data = tracker.to_dict()
        assert data["active"] == ["disk-failure"]
        assert data["history"][0]["healed_ms"] is None
