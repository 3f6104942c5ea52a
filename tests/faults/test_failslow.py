"""FailSlowModel: onset, drive integration, nemesis kind."""

import pytest

from repro.disk.drive import DiskRequest
from repro.disk.hp2247 import make_hp2247
from repro.errors import ConfigurationError
from repro.faults.failslow import FailSlowModel
from repro.faults.nemesis import NemesisEvent, NemesisSchedule


class TestProfiles:
    def test_constant_before_and_after_onset(self):
        model = FailSlowModel(5.0, onset_ms=100.0)
        assert model.multiplier_at(0.0) == 1.0
        assert model.multiplier_at(99.999) == 1.0
        assert model.multiplier_at(100.0) == 5.0
        assert model.multiplier_at(1e9) == 5.0

    def test_report_shape(self):
        model = FailSlowModel(5.0, onset_ms=10.0)
        model.scale(5.0)
        model.scale(12.0)
        assert model.report() == {
            "multiplier": 5.0,
            "onset_ms": 10.0,
            "profile": "constant",
            "applications": 1,
        }


class TestValidation:
    def test_rejects_deflation(self):
        with pytest.raises(ConfigurationError):
            FailSlowModel(0.5)

    def test_rejects_bad_windows(self):
        with pytest.raises(ConfigurationError):
            FailSlowModel(5.0, onset_ms=-1.0)


class TestDriveIntegration:
    def _serve(self, drive, lba=1000, now=0.0):
        return drive.service(
            DiskRequest(lba, 16, False, access_id=0), now_ms=now
        )

    def test_attached_model_inflates_service(self):
        plain = make_hp2247()
        slow = make_hp2247()
        slow.fail_slow = FailSlowModel(5.0, onset_ms=0.0)
        base = self._serve(plain)
        inflated = self._serve(slow)
        assert inflated.seek_ms == pytest.approx(base.seek_ms * 5.0)
        assert inflated.latency_ms == pytest.approx(base.latency_ms * 5.0)
        assert inflated.transfer_ms == pytest.approx(base.transfer_ms * 5.0)
        assert slow.fail_slow.applications == 1

    def test_model_before_onset_is_byte_identical(self):
        plain = make_hp2247()
        armed = make_hp2247()
        armed.fail_slow = FailSlowModel(5.0, onset_ms=1e9)
        for lba in (0, 5000, 123, 99_000):
            a = self._serve(plain, lba=lba, now=7.5)
            b = self._serve(armed, lba=lba, now=7.5)
            assert a == b
        assert armed.fail_slow.applications == 0

    def test_reference_path_matches_table_path_under_failslow(self):
        fast = make_hp2247()
        ref = make_hp2247()
        fast.fail_slow = FailSlowModel(3.0, onset_ms=0.0)
        ref.fail_slow = FailSlowModel(3.0, onset_ms=0.0)
        for lba, now in [(0, 0.0), (4096, 3.3), (77_000, 12.8)]:
            request = DiskRequest(lba, 24, False, access_id=0)
            assert fast.service(request, now) == ref.service_reference(
                request, now
            )

    def test_healed_window_restores_exact_timing(self):
        plain = make_hp2247()
        healed = make_hp2247()
        healed.fail_slow = FailSlowModel(5.0, onset_ms=0.0)
        # Same arm trajectory required for comparison: serve the same
        # request sequence on both, only the one before the heal
        # inflates.
        a1 = self._serve(plain, lba=2000, now=0.0)
        b1 = self._serve(healed, lba=2000, now=0.0)
        assert b1.total_ms == pytest.approx(a1.total_ms * 5.0)
        # The episode ends by detaching the model (the nemesis heal).
        healed.fail_slow = None
        a2 = self._serve(plain, lba=2000, now=50.0)
        b2 = self._serve(healed, lba=2000, now=50.0)
        assert a2 == b2


def _failslow_event(time_ms=100.0, disk=1, multiplier=5.0, duration=500.0):
    return NemesisEvent(
        time_ms=time_ms,
        kind="failslow",
        disk=disk,
        duration_ms=duration,
        multiplier=multiplier,
    )


class TestNemesisFailslowKind:
    def test_default_draw_has_no_failslow_and_replays_identically(self):
        # The draw block is gated entirely behind max_failslow > 0, so
        # pre-existing seeds replay byte-identically.
        a = NemesisSchedule.draw(7, n_disks=13, rows=26)
        b = NemesisSchedule.draw(7, n_disks=13, rows=26, max_failslow=0)
        assert a.content_hash() == b.content_hash()
        assert not any(e.kind == "failslow" for e in a.events)

    def test_drawn_failslow_windows_validate_and_replay(self):
        found = False
        for seed in range(12):
            a = NemesisSchedule.draw(
                seed, n_disks=13, rows=26, max_failslow=2
            )
            b = NemesisSchedule.draw(
                seed, n_disks=13, rows=26, max_failslow=2
            )
            assert a.content_hash() == b.content_hash()
            for event in a.events:
                if event.kind == "failslow":
                    found = True
                    assert event.multiplier == 5.0
                    assert event.duration_ms > 0
                    assert 0 <= event.disk < 13
        assert found

    def test_scripted_failslow_round_trips(self):
        schedule = NemesisSchedule.from_events(
            [
                NemesisEvent(time_ms=50.0, kind="disk-failure", disk=0),
                _failslow_event(),
            ],
            n_disks=13,
            rows=26,
        )
        replayed = NemesisSchedule.from_dict(schedule.to_dict())
        assert replayed == schedule
        assert replayed.events[-1].multiplier == 5.0

    def test_rejects_bad_failslow_events(self):
        base = [NemesisEvent(time_ms=50.0, kind="disk-failure", disk=0)]
        with pytest.raises(ConfigurationError):
            NemesisSchedule.from_events(
                base + [_failslow_event(multiplier=1.0)],
                n_disks=13, rows=26,
            )
        with pytest.raises(ConfigurationError):
            NemesisSchedule.from_events(
                base + [_failslow_event(disk=99)], n_disks=13, rows=26
            )
        with pytest.raises(ConfigurationError):
            # A failslow event is a window: duration is mandatory.
            NemesisSchedule.from_events(
                base
                + [
                    NemesisEvent(
                        time_ms=100.0, kind="failslow", disk=1,
                        multiplier=5.0,
                    )
                ],
                n_disks=13, rows=26,
            )
        with pytest.raises(ConfigurationError):
            # Overlapping windows on the same disk are illegal...
            NemesisSchedule.from_events(
                base
                + [
                    _failslow_event(time_ms=100.0, disk=1),
                    _failslow_event(time_ms=300.0, disk=1),
                ],
                n_disks=13, rows=26,
            )
        # ...but overlap across distinct disks is fine.
        NemesisSchedule.from_events(
            base
            + [
                _failslow_event(time_ms=100.0, disk=1),
                _failslow_event(time_ms=300.0, disk=2),
            ],
            n_disks=13, rows=26,
        )


class TestNemesisTrialApplier:
    def _run(self, events, **fields):
        from repro.experiments.nemesistrial import run_nemesis_trial
        from repro.runner import NemesisTrialSpec

        schedule = NemesisSchedule.from_events(
            events, n_disks=13, rows=26
        )
        return run_nemesis_trial(
            NemesisTrialSpec(layout="pddl", **fields), schedule
        )

    def test_failslow_applies_and_heals(self):
        record = self._run(
            [
                NemesisEvent(time_ms=200.0, kind="disk-failure", disk=0),
                _failslow_event(time_ms=400.0, disk=3, duration=800.0),
            ]
        )
        applied = [
            e for e in record["events"] if e["kind"] == "failslow"
        ]
        assert applied == [
            {
                "time_ms": 400.0,
                "kind": "failslow",
                "disk": 3,
                "duration_ms": 800.0,
                "multiplier": 5.0,
                "outcome": "applied",
            }
        ]
        assert record["failslow_windows"] == 1
        history = [
            h for h in record["faults"]["history"]
            if h["kind"] == "failslow"
        ]
        assert len(history) == 1
        assert history[0]["begun_ms"] == 400.0
        assert history[0]["healed_ms"] == pytest.approx(1200.0)

    def test_failslow_on_failed_disk_is_skipped(self):
        record = self._run(
            [
                NemesisEvent(time_ms=100.0, kind="disk-failure", disk=3),
                _failslow_event(time_ms=400.0, disk=3, duration=800.0),
            ]
        )
        skipped = [
            e for e in record["events"]
            if e["kind"] == "failslow" and e["outcome"] == "skipped"
        ]
        assert len(skipped) == 1
        assert skipped[0]["reason"] == "disk-failed"
        assert "failslow_windows" not in record

    def test_failslow_slows_the_array_measurably(self):
        base = self._run(
            [NemesisEvent(time_ms=5000.0, kind="disk-failure", disk=0)],
            max_samples=80,
        )
        slow = self._run(
            [
                NemesisEvent(time_ms=5000.0, kind="disk-failure", disk=0),
                NemesisEvent(
                    time_ms=0.0, kind="failslow", disk=1,
                    duration_ms=19000.0, multiplier=20.0,
                ),
            ],
            max_samples=80,
        )
        # Same workload, one gray-failing disk: the trial must take
        # strictly longer on the simulated clock to absorb its samples.
        assert (
            slow["transitions"][-1][1] > base["transitions"][-1][1]
            or slow["instrumentation"]["engine"]["events_processed"]
            != base["instrumentation"]["engine"]["events_processed"]
        )
