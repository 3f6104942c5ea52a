"""Acceptance: the Figure 5 sweep through the parallel runner.

A scaled-down (but structurally complete: all five layouts, multiple
sizes and client counts) Figure 5 sweep must (1) produce byte-identical
result records with 4 workers vs. serial, and (2) complete entirely
from cache on a second invocation, executing zero simulations.
"""

from repro.runner import (
    ParallelRunner,
    ResultCache,
    canonical_json,
    curves_from_records,
    response_sweep_specs,
)

#: Fault-free reads: sizes, client counts, is_write, mode, samples.
SWEEP = ((8, 48), (1, 4), False, "ff", 16)


class TestFigure5Parallel:
    def test_parallel_matches_serial_and_cache_replays(self, tmp_path):
        specs = response_sweep_specs(*SWEEP)
        assert len(specs) == 2 * 5 * 2  # sizes x layouts x clients

        serial = ParallelRunner(workers=1).run(specs)
        assert serial.executed == len(specs)

        cache = ResultCache(tmp_path)
        parallel = ParallelRunner(workers=4, cache=cache).run(specs)
        assert parallel.executed == len(specs)
        assert canonical_json(parallel.records) == canonical_json(
            serial.records
        )

        # Second invocation: all cache, zero simulations executed.
        replay = ParallelRunner(workers=4, cache=cache).run(specs)
        assert replay.executed == 0
        assert replay.cache_hits == len(specs)
        assert canonical_json(replay.records) == canonical_json(
            serial.records
        )

    def test_records_reassemble_into_figure_panels(self):
        specs = response_sweep_specs(*SWEEP)
        report = ParallelRunner(workers=1).run(specs)
        panels = curves_from_records(report.records)
        assert sorted(panels) == [8, 48]
        for curves in panels.values():
            assert sorted(curves) == sorted(
                ["datum", "parity-declustering", "raid5", "pddl", "prime"]
            )
            for curve in curves.values():
                assert [p.clients for p in curve.points] == [1, 4]
                assert all(p.samples > 0 for p in curve.points)

    def test_instrumentation_present_and_sane(self):
        specs = response_sweep_specs(
            (8,), (4,), False, "ff", 12, seed=1, layouts=("pddl",)
        )
        record = ParallelRunner(workers=1).run(specs).records[0]
        inst = record["instrumentation"]
        assert inst["engine"]["events_processed"] > 0
        assert inst["engine"]["heap_high_water"] >= 1
        assert len(inst["disks"]) == 13
        assert sum(d["operations"] for d in inst["disks"]) > 0
        assert inst["max_queue_high_water"] >= 1
        assert record["histogram"]["count"] == sum(
            record["histogram"]["counts"].values()
        )

    def test_timelines_when_requested(self):
        from repro.runner import ExperimentSpec

        spec = ExperimentSpec(layout="pddl", size_kb=24, clients=2, seed=2,
                              max_samples=8, warmup=0, timelines=True)
        record = ParallelRunner(workers=1).run([spec]).records[0]
        disks = record["instrumentation"]["disks"]
        assert any(d.get("queue_timeline") for d in disks)
        busiest = max(disks, key=lambda d: d["busy_ms"])
        # Busy-time series is cumulative and ends at the disk's total.
        values = [v for _, v in busiest["busy_timeline"]]
        assert values == sorted(values)
        assert abs(values[-1] - busiest["busy_ms"]) < 1e-9
