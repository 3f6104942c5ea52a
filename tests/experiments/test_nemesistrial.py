"""Nemesis trial execution: classification, scrubbing defence, and the
committed campaign baseline."""

import json
from pathlib import Path

import pytest

from repro.experiments.nemesistrial import (
    nemesis_specs,
    run_nemesis_trial,
    summarize_nemesis,
)
from repro.faults.nemesis import NemesisEvent, NemesisSchedule
from repro.runner import ParallelRunner, canonical_json

REPO_ROOT = Path(__file__).resolve().parents[2]


def scripted(events, rows=26):
    return NemesisSchedule.from_events(events, n_disks=13, rows=rows)


class TestScrubDefendsAgainstLatentErrors:
    """Satellite regression: an LSE burst planted before a disk failure is
    fatal during rebuild unless a scrub pass repairs it first."""

    EVENTS = (
        NemesisEvent(
            time_ms=500.0,
            kind="lse-burst",
            cells=tuple((1, offset) for offset in range(26)),
        ),
        NemesisEvent(time_ms=6000.0, kind="disk-failure", disk=0),
    )

    def test_unscrubbed_array_loses_data(self):
        record = run_nemesis_trial(
            "pddl", scripted(self.EVENTS), seed=3, scrub_interval_ms=None
        )
        assert record["classification"] == "data_loss"
        assert "unreadable sector" in record["loss_reason"]
        assert record["scrub"] is None

    def test_scrubbed_array_survives_the_same_schedule(self):
        record = run_nemesis_trial(
            "pddl", scripted(self.EVENTS), seed=3, scrub_interval_ms=400.0
        )
        assert record["classification"] == "survived"
        assert record["scrub"]["repaired"] >= 26
        assert record["completed_rebuild"] is True

    def test_survival_is_not_an_oracle_blind_spot(self):
        record = run_nemesis_trial(
            "pddl", scripted(self.EVENTS), seed=3, scrub_interval_ms=400.0
        )
        assert record["oracle"]["corruption_events"] == 0
        assert record["oracle"]["rebuild_checks"] > 0


class TestClassification:
    def test_crash_alone_survives_even_without_journal(self):
        """A torn write with every disk healthy is always recoverable:
        resync recomputes parity from surviving data, so the write hole
        only opens when a crash composes with a disk failure."""
        schedule = scripted([NemesisEvent(time_ms=900.0, kind="crash")])
        for journal in (True, False):
            record = run_nemesis_trial(
                "pddl", schedule, seed=5, journal=journal
            )
            assert record["classification"] == "survived"
            assert len(record["crashes"]) == 1
            assert len(record["resyncs"]) == 1

    def test_single_failure_rebuild_survives(self):
        schedule = scripted(
            [NemesisEvent(time_ms=1000.0, kind="disk-failure", disk=4)]
        )
        record = run_nemesis_trial("pddl", schedule, seed=1)
        assert record["classification"] == "survived"
        assert record["completed_rebuild"] is True
        assert record["rebuild"]["steps_completed"] > 0

    def test_storm_window_heals(self):
        schedule = scripted(
            [
                NemesisEvent(
                    time_ms=300.0,
                    kind="transient-storm",
                    rate=0.05,
                    duration_ms=800.0,
                ),
                NemesisEvent(time_ms=4000.0, kind="disk-failure", disk=2),
            ]
        )
        record = run_nemesis_trial("pddl", schedule, seed=2)
        assert record["classification"] == "survived"
        assert record["faults"]["active"] == []
        storm = [
            f for f in record["faults"]["history"]
            if f["kind"] == "transient-storm"
        ]
        assert storm and storm[0]["healed_ms"] is not None

    def test_trial_is_deterministic(self):
        schedule = NemesisSchedule.draw(17, n_disks=13, rows=26)
        first = run_nemesis_trial("pddl", schedule, seed=17)
        second = run_nemesis_trial("pddl", schedule, seed=17)
        assert canonical_json(first) == canonical_json(second)


class TestSummarize:
    def test_counts_and_failing_trials(self):
        records = []
        for trial in range(6):
            spec_schedule = NemesisSchedule.draw(
                seed=9 * 1_000_003 + trial, n_disks=13, rows=26
            )
            records.append(
                run_nemesis_trial(
                    "pddl", spec_schedule, trial=trial, seed=9
                )
            )
        summary = summarize_nemesis(records)
        assert summary["trials"] == 6
        assert (
            summary["survived"]
            + summary["data_loss"]
            + summary["silent_corruption"]
            == 6
        )
        assert summary["silent_corruption"] == 0
        assert summary["corruption_events"] == 0
        assert summary["failing_trials"] == []
        assert sum(summary["events_applied"].values()) > 0

    def test_specs_helper_matches_runner(self):
        specs = nemesis_specs(layout="raid5", trials=3, seed=21)
        report = ParallelRunner(workers=1).run(specs)
        records = [r["nemesis_trial"] for r in report.records]
        assert [r["trial"] for r in records] == [0, 1, 2]
        assert all(r["layout"] == "raid5" for r in records)
        summary = summarize_nemesis(records)
        assert summary["trials"] == 3


class TestCommittedBaseline:
    """Acceptance gate: the committed 200-trial campaign must carry zero
    silent corruption and stay reproducible from its config block."""

    @pytest.fixture(scope="class")
    def baseline(self):
        path = REPO_ROOT / "BENCH_nemesis.json"
        if not path.exists():
            pytest.skip("BENCH_nemesis.json not generated yet")
        return json.loads(path.read_text())

    def test_shape_and_invariants(self, baseline):
        assert baseline["bench"] == "nemesis"
        assert baseline["config"]["trials"] == 200
        assert baseline["config"]["disks"] == 13
        assert baseline["summary"]["trials"] == 200
        assert baseline["summary"]["silent_corruption"] == 0
        assert baseline["summary"]["failing_trials"] == []
        assert len(baseline["trials"]) == 200
        assert all(
            t["corruption_events"] == 0 for t in baseline["trials"]
        )

    def test_provenance_block_present(self, baseline):
        prov = baseline["provenance"]
        assert prov["spec_count"] == 200
        assert len(prov["sweep_hash"]) == 64
        assert isinstance(prov["source_version"], str)

    def test_sampled_trial_replays_identically(self, baseline):
        committed = baseline["trials"][7]
        config = dict(
            baseline["config"], trials=1, start=committed["trial"]
        )
        spec = nemesis_specs(**config)[0]
        report = ParallelRunner(workers=1).run([spec])
        record = report.records[0]["nemesis_trial"]
        assert record["classification"] == committed["classification"]
        assert record["schedule_hash"] == committed["schedule_hash"]
        assert len(record["crashes"]) == committed["crashes"]
