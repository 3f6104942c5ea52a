"""Result-cache behaviour: hits, misses, hash stability, corruption.

The cache may only ever cost recomputation time — a damaged entry must
read as a miss, never as a crash or a wrong record.
"""

import json
import subprocess
import sys
from pathlib import Path

import repro.runner.cache as cache_module
from repro.runner import (
    ExperimentSpec,
    ParallelRunner,
    ResultCache,
    Table1Spec,
    canonical_json,
    spec_from_dict,
    spec_hash,
    spec_to_dict,
)

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _small_spec(seed=0):
    return ExperimentSpec(layout="pddl", size_kb=8, clients=1, seed=seed,
                          max_samples=6, warmup=0)


class TestHitMiss:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _small_spec()
        first = ParallelRunner(workers=1, cache=cache).run([spec])
        assert first.executed == 1 and first.cache_hits == 0
        second = ParallelRunner(workers=1, cache=cache).run([spec])
        assert second.executed == 0 and second.cache_hits == 1
        assert canonical_json(first.records) == canonical_json(
            second.records
        )

    def test_different_spec_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        ParallelRunner(workers=1, cache=cache).run([_small_spec(seed=0)])
        report = ParallelRunner(workers=1, cache=cache).run(
            [_small_spec(seed=1)]
        )
        assert report.executed == 1 and report.cache_hits == 0
        assert len(cache) == 2

    def test_overlapping_sweep_partial_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        ParallelRunner(workers=1, cache=cache).run(
            [_small_spec(0), _small_spec(1)]
        )
        report = ParallelRunner(workers=1, cache=cache).run(
            [_small_spec(1), _small_spec(2)]
        )
        assert report.executed == 1 and report.cache_hits == 1

    def test_fan_out_layout(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _small_spec()
        ParallelRunner(workers=1, cache=cache).run([spec])
        key = spec_hash(spec)
        path = cache.path_for(key)
        assert path.exists()
        assert path.parent.name == key[:2]


class TestSourceFingerprint:
    """Records are only served to the source tree that simulated them."""

    def test_entries_of_other_source_are_misses(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        key = "ab" * 32
        monkeypatch.setattr(cache_module, "source_fingerprint", lambda: "1")
        cache.put(key, {"spec_hash": key, "x": 1})
        assert cache.get(key) == {"spec_hash": key, "x": 1}
        monkeypatch.setattr(cache_module, "source_fingerprint", lambda: "2")
        assert cache.get(key) is None
        assert len(cache) == 0
        monkeypatch.setattr(cache_module, "source_fingerprint", lambda: "1")
        assert cache.get(key) == {"spec_hash": key, "x": 1}

    def test_entries_sit_under_the_fingerprint(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.path_for("ab" * 32)
        assert path.parent.parent == tmp_path / (
            cache_module.source_fingerprint()
        )

    def test_fingerprint_is_stable_across_processes(self):
        code = (
            "from repro.runner.cache import source_fingerprint;"
            "print(source_fingerprint(), end='')"
        )
        fresh = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONPATH": REPO_SRC, "PYTHONHASHSEED": "random"},
        )
        assert fresh.stdout == cache_module.source_fingerprint()


class TestHashStability:
    # Pinned values: if these move, every committed sweep_hash moves
    # with them — that must be a deliberate change, not an accidental
    # field/encoding change.
    PINNED_RESPONSE = (
        "752b85f028b4022c8ba844133b7205b165828cbc837c303a5a668c0d563017ff"
    )
    PINNED_TABLE1 = (
        "2ac93f6cb8d17401f105ffb9090c501697b65015660da84c9467773abb86cd80"
    )

    def test_pinned_hashes(self):
        spec = ExperimentSpec(layout="pddl", size_kb=96, clients=8, seed=5)
        assert spec_hash(spec) == self.PINNED_RESPONSE
        assert spec_hash(Table1Spec(k=6, g=3)) == self.PINNED_TABLE1

    def test_stable_across_process_restarts(self):
        spec = ExperimentSpec(layout="pddl", size_kb=96, clients=8, seed=5)
        code = (
            "from repro.runner import ExperimentSpec, spec_hash;"
            "print(spec_hash(ExperimentSpec(layout='pddl', size_kb=96,"
            " clients=8, seed=5)), end='')"
        )
        fresh = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONPATH": REPO_SRC, "PYTHONHASHSEED": "random"},
        )
        assert fresh.stdout == spec_hash(spec)

    def test_spec_round_trips_through_dict(self):
        for spec in (
            _small_spec(3),
            ExperimentSpec(layout="raid5", mode="f1", is_write=True,
                           size_kb=48, clients=4),
            Table1Spec(k=7, g=2, restarts=5),
        ):
            clone = spec_from_dict(spec_to_dict(spec))
            assert clone == spec
            assert spec_hash(clone) == spec_hash(spec)


class TestCorruption:
    def test_truncated_json_recomputes(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _small_spec()
        good = ParallelRunner(workers=1, cache=cache).run([spec])
        key = spec_hash(spec)
        path = cache.path_for(key)
        # Truncate mid-record: the classic kill -9 halfway through a write
        # under a non-atomic writer.
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        report = ParallelRunner(workers=1, cache=cache).run([spec])
        assert report.executed == 1 and report.cache_hits == 0
        assert canonical_json(report.records) == canonical_json(
            good.records
        )
        # And the entry was repaired on the way through.
        healed = ParallelRunner(workers=1, cache=cache).run([spec])
        assert healed.executed == 0 and healed.cache_hits == 1

    def test_garbage_bytes_recompute(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _small_spec()
        key = spec_hash(spec)
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"\x00\xffnot json at all")
        report = ParallelRunner(workers=1, cache=cache).run([spec])
        assert report.executed == 1

    def test_wrong_record_in_right_file_rejected(self, tmp_path):
        # An entry whose embedded spec_hash disagrees with its filename
        # (e.g. a file copied between cache dirs) must not be served.
        cache = ResultCache(tmp_path)
        spec = _small_spec()
        key = spec_hash(spec)
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"spec_hash": "f" * 64, "point": {}}))
        assert cache.get(key) is None
        report = ParallelRunner(workers=1, cache=cache).run([spec])
        assert report.executed == 1

    def test_non_dict_entry_rejected(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" * 32
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_text("[1, 2, 3]")
        assert cache.get(key) is None

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        ParallelRunner(workers=1, cache=cache).run(
            [_small_spec(0), _small_spec(1)]
        )
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0
