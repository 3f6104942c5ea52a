"""Runner hardening: crash/hang retries, deterministic failures,
worker-count parsing, and cache corruption recovery."""

import os
import subprocess
import sys
import time

import pytest

from repro.errors import RunnerError
from repro.runner import ParallelRunner, ResultCache, canonical_json
from repro.runner.parallel import default_workers
from repro.runner.spec import CampaignTrialSpec, spec_hash
from repro.runner import workers
from repro.runner.workers import CRASH_ONCE_ENV, HANG_ONCE_ENV, run_hardened


def quick_specs(trials=4):
    return [
        CampaignTrialSpec(
            layout="pddl",
            trial=trial,
            seed=5,
            mttf_hours=0.03,
            faults=2,
            degraded_dwell_ms=4000.0,
            rebuild_rows=26,
        )
        for trial in range(trials)
    ]


@pytest.fixture
def fast_backoff(monkeypatch):
    """Retry after 10 ms instead of the pool's half-second base."""
    monkeypatch.setattr(workers, "BACKOFF_BASE_S", 0.01)


class TestFaultInjection:
    def test_crashed_worker_costs_a_retry_not_the_run(
        self, tmp_path, monkeypatch, fast_backoff
    ):
        specs = quick_specs()
        reference = ParallelRunner(workers=1).run(specs).records

        marker = tmp_path / "crash.marker"
        monkeypatch.setenv(CRASH_ONCE_ENV, str(marker))
        records = run_hardened(specs, workers=2, retries=2)
        assert marker.exists()  # the injected crash actually fired
        assert canonical_json(records) == canonical_json(reference)

    def test_hung_worker_blows_its_deadline_and_retries(
        self, tmp_path, monkeypatch, fast_backoff
    ):
        specs = quick_specs(3)
        reference = ParallelRunner(workers=1).run(specs).records

        marker = tmp_path / "hang.marker"
        monkeypatch.setenv(HANG_ONCE_ENV, str(marker))
        records = run_hardened(specs, workers=2, timeout_s=3.0, retries=1)
        assert marker.exists()
        assert canonical_json(records) == canonical_json(reference)

    def test_one_worker_deadline_runs_on_the_pool(
        self, tmp_path, monkeypatch, fast_backoff
    ):
        # A deadline or a retry budget takes the pool at any worker
        # count: in-process, a wedged spec would hang the run.
        specs = quick_specs(3)
        reference = ParallelRunner(workers=1).run(specs).records

        marker = tmp_path / "hang.marker"
        monkeypatch.setenv(HANG_ONCE_ENV, str(marker))
        runner = ParallelRunner(workers=1, timeout_s=1.0, retries=1)
        records = runner.run(specs).records
        assert marker.exists()  # the hang fired and was reaped
        assert canonical_json(records) == canonical_json(reference)

    def test_exhausted_retry_budget_raises(self, tmp_path, monkeypatch):
        # With no retry budget the single injected crash is fatal, and
        # the error says which spec spent the budget.
        marker = tmp_path / "crash.marker"
        monkeypatch.setenv(CRASH_ONCE_ENV, str(marker))
        with pytest.raises(RunnerError, match="retry budget"):
            run_hardened(quick_specs(), workers=2, retries=0)


class TestDeterministicFailure:
    def test_deterministic_failure_skips_backoff_entirely(
        self, monkeypatch
    ):
        # A ReproError is a pure function of the spec: the batch must
        # abort without ever entering the capped-exponential backoff
        # schedule.  With a 30s base delay, one slept backoff would blow
        # this timing wall by an order of magnitude.
        monkeypatch.setattr(workers, "BACKOFF_BASE_S", 30.0)
        bad = CampaignTrialSpec(
            layout="pddl",
            disks=12,  # pddl needs a prime+1 disk count
            trial=0,
            mttf_hours=0.03,
            rebuild_rows=26,
        )
        started = time.monotonic()
        with pytest.raises(RunnerError, match="not retried"):
            run_hardened([bad], workers=1, retries=5)
        assert time.monotonic() - started < 10.0

    def test_environmental_failure_is_retried_with_backoff(self, tmp_path):
        # Non-ReproError exceptions are environmental: the task requeues
        # (with backoff) on a still-healthy worker instead of aborting
        # the batch — exercised via a hook on the worker's execute_spec
        # that fails exactly once.
        specs = quick_specs(2)
        reference = ParallelRunner(workers=1).run(specs).records

        flaky = tmp_path / "flaky.marker"
        monkeypatch_code = (
            "import os\n"
            "from repro.runner import workers as _wk\n"
            "_orig = _wk.execute_spec\n"
            "def _flaky(spec):\n"
            f"    path = {str(flaky)!r}\n"
            "    try:\n"
            "        fd = os.open(path, os.O_CREAT | os.O_EXCL |"
            " os.O_WRONLY)\n"
            "    except OSError:\n"
            "        return _orig(spec)\n"
            "    os.close(fd)\n"
            "    raise MemoryError('transient pressure')\n"
            "_wk.execute_spec = _flaky\n"
        )
        site_dir = tmp_path / "site"
        site_dir.mkdir()
        (site_dir / "sitecustomize.py").write_text(
            monkeypatch_code, encoding="utf-8"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(site_dir)] + sys.path
        )
        script = (
            "from repro.runner import workers\n"
            "from repro.runner import canonical_json\n"
            "from repro.runner.spec import CampaignTrialSpec\n"
            "specs = [CampaignTrialSpec(layout='pddl', trial=t, seed=5,"
            " mttf_hours=0.03, faults=2, degraded_dwell_ms=4000.0,"
            " rebuild_rows=26) for t in range(2)]\n"
            "workers.BACKOFF_BASE_S = 0.01\n"
            "records = workers.run_hardened(specs, workers=1, retries=2)\n"
            "print(canonical_json(records))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert flaky.exists()  # the injected failure actually fired
        assert proc.stdout.strip() == canonical_json(reference)

    def test_spec_that_raises_is_not_retried(self, fast_backoff):
        # pddl needs a prime+1 disk count; 12 fails inside the worker
        # identically every time, so the batch aborts instead of
        # burning the retry budget.
        bad = CampaignTrialSpec(
            layout="pddl",
            disks=12,
            trial=0,
            mttf_hours=0.03,
            rebuild_rows=26,
        )
        with pytest.raises(RunnerError, match="not retried"):
            run_hardened([bad, *quick_specs(2)], workers=2, retries=3)

    def test_parameter_validation(self):
        with pytest.raises(RunnerError):
            run_hardened(quick_specs(2), workers=0)
        with pytest.raises(RunnerError):
            run_hardened(quick_specs(2), workers=2, retries=-1)


class TestDefaultWorkers:
    def test_unset_is_silently_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_WORKERS", raising=False)
        assert default_workers() == 1

    def test_valid_value_is_used(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_WORKERS", "6")
        assert default_workers() == 6

    @pytest.mark.parametrize("raw", ["banana", "0", "-3", "2.5"])
    def test_invalid_values_warn_and_fall_back(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_BENCH_WORKERS", raw)
        with pytest.warns(RuntimeWarning, match="REPRO_BENCH_WORKERS"):
            assert default_workers() == 1


class TestCacheCorruption:
    def test_truncated_entry_is_quarantined_and_recomputed(self, tmp_path):
        spec = quick_specs(1)[0]
        key = spec_hash(spec)
        cache = ResultCache(tmp_path / "cache")
        runner = ParallelRunner(workers=1, cache=cache)

        first = runner.run([spec])
        assert first.executed == 1
        reference = first.records

        # Simulate a kill mid-write: the log ends inside the record.
        log = cache.path
        torn = log.read_bytes()[:-100]
        log.write_bytes(torn)

        cache = ResultCache(tmp_path / "cache")
        assert cache.get(key) is None
        assert cache.quarantined == 1
        assert log.read_bytes() == torn  # left in place for inspection

        second = ParallelRunner(workers=1, cache=cache).run([spec])
        assert second.executed == 1  # recomputed, not served corrupt
        assert canonical_json(second.records) == canonical_json(reference)
        # The recompute healed the entry after the torn line.
        assert ResultCache(tmp_path / "cache").get(key) == reference[0]
