"""Result-cache behaviour: hits, misses, hash stability, corruption.

The cache may only ever cost recomputation time — a damaged entry must
read as a miss, never as a crash or a wrong record.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro.runner.cache as cache_module
from repro.errors import ReproError
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


def entry_count(cache) -> int:
    """Keys the cache serves: its index of this source's log lines."""
    return len(cache._entries())


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
        assert entry_count(cache) == 2

    def test_overlapping_sweep_partial_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        ParallelRunner(workers=1, cache=cache).run(
            [_small_spec(0), _small_spec(1)]
        )
        report = ParallelRunner(workers=1, cache=cache).run(
            [_small_spec(1), _small_spec(2)]
        )
        assert report.executed == 1 and report.cache_hits == 1

    def test_one_log_per_source_tree(self, tmp_path):
        cache = ResultCache(tmp_path)
        ParallelRunner(workers=1, cache=cache).run(
            [_small_spec(0), _small_spec(1)]
        )
        assert list(tmp_path.iterdir()) == [cache.path]
        assert len(cache.path.read_bytes().splitlines()) == 2


#: One cache writer: waits for ``<root>/go`` so that both writers start
#: together, then runs its seeds into the cache at ``<root>/cache``.
_WRITER = """
import json, os, sys, time
from repro.runner import ExperimentSpec, ParallelRunner, ResultCache
root, seeds = sys.argv[1], json.loads(sys.argv[2])
specs = [ExperimentSpec(layout="pddl", size_kb=8, clients=1, seed=s,
                        max_samples=6, warmup=0) for s in seeds]
open(os.path.join(root, f"ready-{os.getpid()}"), "w").close()
deadline = time.monotonic() + 60
while not os.path.exists(os.path.join(root, "go")):
    assert time.monotonic() < deadline, "no go signal"
    time.sleep(0.005)
cache = ResultCache(os.path.join(root, "cache"))
ParallelRunner(workers=1, cache=cache).run(specs)
"""


def _campaign_trial(trial, disks=13):
    from repro.runner import CampaignTrialSpec

    # PDDL needs a prime + 1 disk count, so disks=12 raises mid-run.
    return CampaignTrialSpec(layout="pddl", disks=disks, trial=trial,
                             seed=5, mttf_hours=0.03, faults=2,
                             degraded_dwell_ms=4000.0, rebuild_rows=26)


class TestRecordsLandAsTheyComplete:
    """A run that dies part-way keeps every record it finished."""

    def _run_then_reopen(self, tmp_path, workers):
        good = [_campaign_trial(0), _campaign_trial(1)]
        reference = ParallelRunner(workers=1).run(good).records
        runner = ParallelRunner(workers=workers,
                                cache=ResultCache(tmp_path))
        with pytest.raises(ReproError):
            runner.run([*good, _campaign_trial(2, disks=12)])
        fresh = ResultCache(tmp_path)
        return [fresh.get(spec_hash(s)) for s in good], reference

    def test_serial_run_keeps_what_it_finished(self, tmp_path):
        served, reference = self._run_then_reopen(tmp_path, workers=1)
        assert served == reference

    def test_pool_run_keeps_what_it_finished(self, tmp_path):
        # The failing third spec is assigned only after a worker has
        # delivered a record, so at least that record is in the cache.
        served, reference = self._run_then_reopen(tmp_path, workers=2)
        assert any(record is not None for record in served)
        for record, expected in zip(served, reference):
            assert record in (None, expected)


class TestConcurrentWriters:
    def test_two_processes_share_one_cache(self, tmp_path):
        seeds = list(range(8))
        halves = [seeds[:6], seeds[2:][::-1]]  # overlap on seeds 2..5
        writers = [
            subprocess.Popen(
                [sys.executable, "-c", _WRITER, str(tmp_path),
                 json.dumps(half)],
                env={"PYTHONPATH": REPO_SRC},
            )
            for half in halves
        ]
        deadline = time.monotonic() + 60
        while len(list(tmp_path.glob("ready-*"))) < len(writers):
            assert time.monotonic() < deadline, "writers never got ready"
            time.sleep(0.005)
        (tmp_path / "go").touch()
        assert [writer.wait(timeout=120) for writer in writers] == [0, 0]

        specs = [_small_spec(seed) for seed in seeds]
        cache = ResultCache(tmp_path / "cache")
        served = ParallelRunner(workers=1, cache=cache).run(specs)
        assert served.executed == 0 and served.cache_hits == len(specs)
        assert entry_count(cache) == len(specs)
        serial = ParallelRunner(workers=1).run(specs)
        assert canonical_json(served.records) == canonical_json(
            serial.records
        )


class TestSourceFingerprint:
    """Records are only served to the source tree that simulated them."""

    def test_entries_of_other_source_are_misses(self, tmp_path, monkeypatch):
        key = "ab" * 32

        def source(digit):
            monkeypatch.setattr(
                cache_module, "source_fingerprint", lambda: digit * 64
            )

        source("1")
        ResultCache(tmp_path).put(key, {"spec_hash": key, "x": 1})
        assert ResultCache(tmp_path).get(key) == {"spec_hash": key, "x": 1}
        source("2")
        cache = ResultCache(tmp_path)
        assert cache.get(key) is None
        assert entry_count(cache) == 0
        source("1")
        assert ResultCache(tmp_path).get(key) == {"spec_hash": key, "x": 1}

    def test_entries_sit_under_the_fingerprint(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.path == tmp_path / (
            f"{cache_module.source_fingerprint()}.jsonl"
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


def _line(key, record, stamp=None) -> str:
    """One log line as :class:`ResultCache` writes it."""
    stamp = stamp or cache_module.source_fingerprint()
    return f'["{key}","{stamp}",{json.dumps(record, sort_keys=True)}]\n'


class TestCorruption:
    """Each damaged line is a miss, counted in ``quarantined`` and left
    in place; every other record still hits."""

    def _two_records(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = [_small_spec(0), _small_spec(1)]
        good = ParallelRunner(workers=1, cache=cache).run(specs)
        return cache.path, specs, good

    def test_truncated_json_recomputes(self, tmp_path):
        path, specs, good = self._two_records(tmp_path)
        # A writer killed halfway through the last line: it has no newline.
        data = path.read_bytes()
        torn = data[: len(data) - 200]
        path.write_bytes(torn)
        cache = ResultCache(tmp_path)
        report = ParallelRunner(workers=1, cache=cache).run(specs)
        assert report.executed == 1 and report.cache_hits == 1
        assert cache.quarantined == 1
        assert canonical_json(report.records) == canonical_json(
            good.records
        )
        # The recomputed record starts a fresh line after the torn one.
        assert path.read_bytes().startswith(torn + b"\n")
        healed = ParallelRunner(workers=1, cache=ResultCache(tmp_path))
        assert healed.run(specs).cache_hits == 2

    def test_garbage_bytes_recompute(self, tmp_path):
        path, specs, _ = self._two_records(tmp_path)
        key = spec_hash(specs[0])
        stamp = cache_module.source_fingerprint()
        with open(path, "ab") as handle:
            handle.write(b"\x00\xffnot json at all\n")
            handle.write(f'["{key}","{stamp}",'.encode() + b"\x00\xff]\n")
        cache = ResultCache(tmp_path)
        assert cache.get(key) is None
        assert cache.quarantined == 2
        report = ParallelRunner(workers=1, cache=cache).run(specs)
        assert report.executed == 1 and report.cache_hits == 1

    def test_wrong_record_in_right_file_rejected(self, tmp_path):
        # A record filed under another spec hash (a line copied between
        # logs, a bit flip in the prefix) must not be served.
        cache = ResultCache(tmp_path)
        spec = _small_spec()
        key = spec_hash(spec)
        cache.path.write_text(
            _line(key, {"spec_hash": "f" * 64, "point": {}}),
            encoding="utf-8",
        )
        assert cache.get(key) is None
        assert cache.quarantined == 1
        report = ParallelRunner(workers=1, cache=cache).run([spec])
        assert report.executed == 1
        assert ResultCache(tmp_path).get(key) == report.records[0]

    def test_non_dict_entry_rejected(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" * 32
        cache.path.write_text(
            _line(key, [1, 2, 3]) + json.dumps({"spec_hash": key}) + "\n",
            encoding="utf-8",
        )
        assert cache.get(key) is None
        assert cache.quarantined == 2

    def test_lines_of_other_source_are_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" * 32
        record = {"spec_hash": key, "x": 1}
        cache.path.write_text(_line(key, record, "0" * 64), encoding="utf-8")
        (tmp_path / f"{'0' * 64}.jsonl").write_text(
            _line(key, record, "0" * 64), encoding="utf-8"
        )
        assert cache.get(key) is None
        assert entry_count(cache) == 0 and cache.quarantined == 0

    def test_last_line_wins(self, tmp_path):
        key = "ab" * 32
        cache = ResultCache(tmp_path)
        cache.put(key, {"spec_hash": key, "x": 1})
        cache.put(key, {"spec_hash": key, "x": 2})
        assert cache.get(key)["x"] == 2
        fresh = ResultCache(tmp_path)
        assert fresh.get(key)["x"] == 2
        assert entry_count(fresh) == 1
