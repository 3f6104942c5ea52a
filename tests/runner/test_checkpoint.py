"""RunCheckpoint: tolerant loads, fsynced appends, kill/resume parity,
source stamps."""

import json

import pytest

import repro.runner.checkpoint as checkpoint_module
from repro.runner import ParallelRunner, RunCheckpoint, canonical_json
from repro.runner.cache import source_fingerprint
from repro.runner.spec import CampaignTrialSpec, LifecycleSpec, spec_hash


def quick_specs(trials=6):
    return [
        CampaignTrialSpec(
            layout="pddl",
            trial=trial,
            seed=3,
            mttf_hours=0.03,
            faults=2,
            degraded_dwell_ms=4000.0,
            rebuild_rows=26,
        )
        for trial in range(trials)
    ]


def stamped(record) -> str:
    """One checkpoint line written by this source tree."""
    return json.dumps({"source": source_fingerprint(), "record": record})


class TestLoad:
    def test_missing_file_is_an_empty_checkpoint(self, tmp_path):
        cp = RunCheckpoint(tmp_path / "run.jsonl")
        assert len(cp) == 0
        assert cp.corrupt_lines == 0
        assert cp.get("ab" * 32) is None

    def test_truncated_tail_is_skipped_not_raised(self, tmp_path):
        path = tmp_path / "run.jsonl"
        good = [
            {"spec_hash": "aa" * 32, "x": 1},
            {"spec_hash": "bb" * 32, "x": 2},
        ]
        with open(path, "w", encoding="utf-8") as handle:
            for record in good:
                handle.write(stamped(record) + "\n")
            # A kill mid-write leaves a torn final line.
            handle.write(stamped({"spec_hash": "cc" * 32})[:40])
        cp = RunCheckpoint(path)
        assert len(cp) == 2
        assert cp.corrupt_lines == 1
        assert cp.get("aa" * 32)["x"] == 1
        assert cp.get("bb" * 32)["x"] == 2

    def test_records_without_a_hash_count_as_corrupt(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(
            stamped({"x": 1}) + "\n" + stamped([1, 2, 3]) + "\n",
            encoding="utf-8",
        )
        cp = RunCheckpoint(path)
        assert len(cp) == 0
        assert cp.corrupt_lines == 2


class TestAppend:
    def test_append_requires_a_spec_hash(self, tmp_path):
        cp = RunCheckpoint(tmp_path / "run.jsonl")
        with pytest.raises(ValueError):
            cp.append({"x": 1})

    def test_appends_survive_a_reload(self, tmp_path):
        path = tmp_path / "run.jsonl"
        cp = RunCheckpoint(path)
        cp.append({"spec_hash": "ab" * 32, "x": 1})
        cp.append({"spec_hash": "cd" * 32, "x": 2})
        reloaded = RunCheckpoint(path)
        assert sorted(reloaded.keys()) == sorted(cp.keys())
        assert reloaded.get("cd" * 32)["x"] == 2


class TestResume:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_interrupted_run_resumes_byte_identically(
        self, tmp_path, workers
    ):
        specs = quick_specs()
        reference = ParallelRunner(workers=workers).run(specs).records

        # "Kill" a run after half the trials: seed the checkpoint with
        # the records a dying run would have persisted.
        path = tmp_path / "run.jsonl"
        partial = RunCheckpoint(path)
        for spec, record in zip(specs[:3], reference[:3]):
            assert record["spec_hash"] == spec_hash(spec)
            partial.append(record)

        resumed = ParallelRunner(
            workers=workers, checkpoint=RunCheckpoint(path)
        ).run(specs)
        assert resumed.checkpoint_hits == 3
        assert resumed.executed == 3
        assert canonical_json(resumed.records) == canonical_json(reference)

    def test_completed_checkpoint_reruns_nothing(self, tmp_path):
        specs = quick_specs(4)
        path = tmp_path / "run.jsonl"
        first = ParallelRunner(
            workers=1, checkpoint=RunCheckpoint(path)
        ).run(specs)
        assert first.executed == 4

        second = ParallelRunner(
            workers=1, checkpoint=RunCheckpoint(path)
        ).run(specs)
        assert second.executed == 0
        assert second.checkpoint_hits == 4
        assert canonical_json(second.records) == canonical_json(
            first.records
        )


class TestSourceStamp:
    def test_lines_keep_the_record_beside_the_source_stamp(self, tmp_path):
        path = tmp_path / "run.jsonl"
        record = {"spec_hash": "ab" * 32, "x": 1}
        RunCheckpoint(path).append(record)
        assert json.loads(path.read_text(encoding="utf-8")) == {
            "source": source_fingerprint(),
            "record": record,
        }

    def test_records_from_other_source_are_simulated_again(
        self, tmp_path, monkeypatch
    ):
        specs = quick_specs(4)
        path = tmp_path / "run.jsonl"
        first = ParallelRunner(
            workers=1, checkpoint=RunCheckpoint(path)
        ).run(specs)
        assert first.executed == 4
        # The same checkpoint, resumed by an edited source tree.
        monkeypatch.setattr(
            checkpoint_module,
            "source_fingerprint",
            lambda: "0" * 64,
            raising=False,
        )
        second = ParallelRunner(
            workers=1, checkpoint=RunCheckpoint(path)
        ).run(specs)
        assert second.checkpoint_hits == 0
        assert second.executed == 4
        assert canonical_json(second.records) == canonical_json(
            first.records
        )


class TestHashStability:
    def test_lifecycle_spec_hash_is_pinned(self):
        # Checkpoints and caches key on this; a drift silently orphans
        # every existing record.  Do not update this value.
        assert spec_hash(LifecycleSpec(layout="pddl", fault_time_ms=500.0)) == (
            "04f082384cf33b88e8cdab83559969d7"
            "707b27d9ad267e2fd6c69df8d95d1f9a"
        )
