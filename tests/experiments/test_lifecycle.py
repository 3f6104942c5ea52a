"""Lifecycle experiment: one continuous run through all four regimes.

The acceptance bar for the fault subsystem: a single simulation
traverses fault-free -> degraded -> reconstruction -> post-reconstruction
under constant client load, and the degraded-mode mean response is no
better than the fault-free mean at equal load.
"""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.lifecycle import run_lifecycle
from repro.runner import LifecycleSpec

#: Long enough dwell/rebuild windows that each regime collects a real
#: sample population at 4 clients.
SCENARIO = dict(
    failed_disk=0,
    fault_time_ms=500.0,
    degraded_dwell_ms=800.0,
    rebuild_rows=26,
)


def run(layout="pddl", **fields):
    fields = {
        "size_kb": 24,
        "clients": 4,
        "seed": 7,
        "max_samples": 3000,
        "post_samples": 80,
        **SCENARIO,
        **fields,
    }
    return run_lifecycle(LifecycleSpec(layout=layout, **fields))


def mode_summary_rows(result):
    """One row per mode the run sampled, in transition order."""
    rows = []
    for mode, _ in result.transitions:
        if result.by_mode.samples(mode) == 0:
            continue
        histogram = result.by_mode.histogram(mode)
        rows.append(
            f"{mode:20s} n={histogram.count:<5d}"
            f" mean={histogram.mean:8.2f} ms"
            f" p95={histogram.percentile(95):8.2f} ms"
        )
    return rows


class TestAcceptance:
    def test_single_run_traverses_all_four_regimes(self):
        result = run()
        assert [mode for mode, _ in result.transitions] == [
            "fault-free",
            "degraded",
            "reconstruction",
            "post-reconstruction",
        ]
        assert result.complete
        assert all(
            result.by_mode.samples(mode) > 0
            for mode, _ in result.transitions
        )

    def test_degraded_mean_at_least_fault_free_mean(self):
        result = run()
        assert result.by_mode.mean("degraded") >= result.by_mode.mean(
            "fault-free"
        )


class TestResultShape:
    def test_samples_and_bins_are_consistent(self):
        result = run()
        counts = [h["count"] for h in result.by_mode.to_dict().values()]
        assert sum(counts) == result.samples
        assert result.fault_time_ms == 500.0
        assert result.fault_disk == 0

    def test_rebuild_bookkeeping(self):
        result = run()
        assert result.rebuild_duration_ms is not None
        assert result.rebuild_duration_ms > 0
        assert result.rebuild_steps == result.rebuild_total_steps
        assert result.rebuild_fraction == 1.0
        # 26 rows of a 13-disk PDDL period: 2 spare cells on the failed
        # disk, so 24 lost units.
        assert result.rebuild_total_steps == 24

    def test_progress_timeline_is_monotonic(self):
        result = run()
        assert len(result.progress) == result.rebuild_total_steps
        times = [t for t, _ in result.progress.points]
        fractions = [f for _, f in result.progress.points]
        assert times == sorted(times)
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0

    def test_mode_summary_rows_render(self):
        result = run()
        rows = mode_summary_rows(result)
        assert len(rows) == 4
        assert rows[0].startswith("fault-free")

    def test_replacement_layout_lifecycle(self):
        result = run("parity-declustering")
        assert result.complete
        assert result.rebuild_total_steps == 26

    def test_rejects_bad_bounds(self):
        with pytest.raises(ConfigurationError):
            run(clients=0)
        with pytest.raises(ConfigurationError):
            run(max_samples=0)


class TestDeterminism:
    def test_identical_calls_identical_results(self):
        a, b = run(), run()
        assert a.transitions == b.transitions
        assert a.by_mode.to_dict() == b.by_mode.to_dict()
        assert a.progress.points == b.progress.points
        assert a.rebuild_duration_ms == b.rebuild_duration_ms
