"""The result cache as a run's checkpoint: tolerant loads, puts that
survive a reload, kill/resume parity, source stamps.

Every record is put into the cache as it completes, so a killed run
resumes from the cache alone.
"""

import json

import pytest

import repro.runner.cache as cache_module
from repro.runner import ParallelRunner, ResultCache, canonical_json
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


def stamped(record, key=None) -> str:
    """One log line written by this source tree."""
    key = key or record["spec_hash"]
    stamp = cache_module.source_fingerprint()
    return f'["{key}","{stamp}",{json.dumps(record)}]'


class TestLoad:
    def test_missing_file_is_an_empty_checkpoint(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert len(cache) == 0
        assert cache.quarantined == 0
        assert cache.get("ab" * 32) is None

    def test_truncated_tail_is_skipped_not_raised(self, tmp_path):
        cache = ResultCache(tmp_path)
        good = [
            {"spec_hash": "aa" * 32, "x": 1},
            {"spec_hash": "bb" * 32, "x": 2},
        ]
        with open(cache.path, "w", encoding="utf-8") as handle:
            for record in good:
                handle.write(stamped(record) + "\n")
            # A kill mid-write leaves a torn final line.
            handle.write(stamped({"spec_hash": "cc" * 32})[:40])
        assert len(cache) == 2
        assert cache.quarantined == 1
        assert cache.get("aa" * 32)["x"] == 1
        assert cache.get("bb" * 32)["x"] == 2

    def test_records_without_a_hash_count_as_corrupt(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.path.write_text(
            stamped({"x": 1}, "aa" * 32) + "\n"
            + stamped([1, 2, 3], "bb" * 32) + "\n",
            encoding="utf-8",
        )
        assert cache.get("aa" * 32) is None
        assert cache.get("bb" * 32) is None
        assert len(cache) == 0
        assert cache.quarantined == 2

    def test_lines_of_the_older_form_count_as_corrupt(self, tmp_path):
        cache = ResultCache(tmp_path)
        record = {"spec_hash": "ab" * 32, "x": 1}
        cache.path.write_text(
            json.dumps(
                {"source": cache_module.source_fingerprint(), "record": record}
            )
            + "\n",
            encoding="utf-8",
        )
        assert len(cache) == 0
        assert cache.quarantined == 1


class TestAppend:
    def test_append_requires_a_spec_hash(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(ValueError):
            cache.put("x", {"x": 1})

    def test_appends_survive_a_reload(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("ab" * 32, {"spec_hash": "ab" * 32, "x": 1})
        cache.put("cd" * 32, {"spec_hash": "cd" * 32, "x": 2})
        reloaded = ResultCache(tmp_path)
        assert len(reloaded) == 2
        assert reloaded.get("ab" * 32)["x"] == 1
        assert reloaded.get("cd" * 32)["x"] == 2


class TestResume:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_interrupted_run_resumes_byte_identically(
        self, tmp_path, workers
    ):
        specs = quick_specs()
        reference = ParallelRunner(workers=workers).run(specs).records

        # "Kill" a run after half the trials: seed the cache with the
        # records a dying run would have put.
        partial = ResultCache(tmp_path)
        for spec, record in zip(specs[:3], reference[:3]):
            assert record["spec_hash"] == spec_hash(spec)
            partial.put(record["spec_hash"], record)

        resumed = ParallelRunner(
            workers=workers, cache=ResultCache(tmp_path)
        ).run(specs)
        assert resumed.cache_hits == 3
        assert resumed.executed == 3
        assert canonical_json(resumed.records) == canonical_json(reference)

    def test_completed_checkpoint_reruns_nothing(self, tmp_path):
        specs = quick_specs(4)
        first = ParallelRunner(
            workers=1, cache=ResultCache(tmp_path)
        ).run(specs)
        assert first.executed == 4

        second = ParallelRunner(
            workers=1, cache=ResultCache(tmp_path)
        ).run(specs)
        assert second.executed == 0
        assert second.cache_hits == 4
        assert canonical_json(second.records) == canonical_json(
            first.records
        )


class TestSourceStamp:
    def test_lines_keep_the_record_beside_the_source_stamp(self, tmp_path):
        record = {"spec_hash": "ab" * 32, "x": 1}
        cache = ResultCache(tmp_path)
        cache.put("ab" * 32, record)
        assert json.loads(cache.path.read_text(encoding="utf-8")) == [
            "ab" * 32,
            cache_module.source_fingerprint(),
            record,
        ]

    def test_records_from_other_source_are_simulated_again(
        self, tmp_path, monkeypatch
    ):
        specs = quick_specs(4)
        first = ParallelRunner(
            workers=1, cache=ResultCache(tmp_path)
        ).run(specs)
        assert first.executed == 4
        # The same cache root, resumed by an edited source tree.
        monkeypatch.setattr(
            cache_module, "source_fingerprint", lambda: "0" * 64
        )
        second = ParallelRunner(
            workers=1, cache=ResultCache(tmp_path)
        ).run(specs)
        assert second.cache_hits == 0
        assert second.executed == 4
        assert canonical_json(second.records) == canonical_json(
            first.records
        )


class TestHashStability:
    def test_lifecycle_spec_hash_is_pinned(self):
        # The cache keys on this; a drift silently orphans every
        # existing record.  Do not update this value.
        assert spec_hash(LifecycleSpec(layout="pddl", fault_time_ms=500.0)) == (
            "04f082384cf33b88e8cdab83559969d7"
            "707b27d9ad267e2fd6c69df8d95d1f9a"
        )
