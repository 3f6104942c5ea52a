"""Lifecycle specs through the runner: determinism, caching, assembly.

The runner's byte-determinism contract extends to the fault subsystem: a
lifecycle run, whose failure and rebuild values its spec holds, must
produce byte-identical records serially, across 4 worker processes, and
replayed from the on-disk cache.
"""

import pytest

from repro.errors import ConfigurationError
from repro.runner import (
    LifecycleSpec,
    ParallelRunner,
    ResultCache,
    canonical_json,
    execute_spec,
    lifecycle_sweep_specs,
    rebuild_load_curves,
    spec_from_dict,
    spec_hash,
    spec_to_dict,
)

LAYOUTS = ("pddl", "parity-declustering")


def _specs(clients=(1, 3), **kwargs):
    kwargs.setdefault("fault_time_ms", 200.0)
    kwargs.setdefault("degraded_dwell_ms", 150.0)
    kwargs.setdefault("rebuild_rows", 13)
    kwargs.setdefault("post_samples", 20)
    kwargs.setdefault("max_samples", 400)
    return lifecycle_sweep_specs(LAYOUTS, clients, **kwargs)


class TestSpec:
    def test_round_trips_through_dict(self):
        spec = LifecycleSpec(
            layout="pddl", mttf_hours=5.0, fault_seed=3, timelines=True
        )
        assert spec_from_dict(spec_to_dict(spec)) == spec
        assert spec_to_dict(spec)["kind"] == "lifecycle"

    def test_hash_stable_and_sensitive(self):
        a = LifecycleSpec(layout="pddl", fault_time_ms=100.0)
        b = LifecycleSpec(layout="pddl", fault_time_ms=100.0)
        c = LifecycleSpec(layout="pddl", fault_time_ms=100.0, clients=5)
        assert spec_hash(a) == spec_hash(b)
        assert spec_hash(a) != spec_hash(c)

    def test_scenario_validation_happens_at_construction(self):
        with pytest.raises(ConfigurationError):
            LifecycleSpec(layout="pddl")  # no fault source
        with pytest.raises(ConfigurationError):
            LifecycleSpec(
                layout="pddl", fault_time_ms=1.0, mttf_hours=2.0
            )
        with pytest.raises(ConfigurationError):
            LifecycleSpec(layout="pddl", fault_time_ms=1.0, clients=0)


class TestDeterminism:
    def test_serial_vs_four_workers_byte_identical(self):
        specs = _specs()
        serial = ParallelRunner(workers=1).run(specs)
        parallel = ParallelRunner(workers=4).run(specs)
        assert serial.executed == parallel.executed == len(specs)
        assert canonical_json(serial.records) == canonical_json(
            parallel.records
        )

    def test_cache_replay_byte_identical(self, tmp_path):
        specs = _specs(clients=(2,))
        cache = ResultCache(tmp_path)
        first = ParallelRunner(workers=1, cache=cache).run(specs)
        replay = ParallelRunner(workers=1, cache=cache).run(specs)
        assert first.executed == len(specs)
        assert replay.executed == 0
        assert replay.cache_hits == len(specs)
        assert canonical_json(first.records) == canonical_json(
            replay.records
        )

    def test_stochastic_fault_is_cacheable_too(self, tmp_path):
        specs = lifecycle_sweep_specs(
            ("pddl",),
            (2,),
            fault_time_ms=None,
            mttf_hours=0.0002,  # fails within ~the first second
            rebuild_rows=13,
            post_samples=10,
            max_samples=300,
        )
        cache = ResultCache(tmp_path)
        first = ParallelRunner(workers=1, cache=cache).run(specs)
        replay = ParallelRunner(workers=1, cache=cache).run(specs)
        assert replay.cache_hits == 1
        assert canonical_json(first.records) == canonical_json(
            replay.records
        )


class TestRecords:
    def test_record_shape(self):
        record = execute_spec(_specs(clients=(2,))[0])
        life = record["lifecycle"]
        assert life["layout"] == "pddl"
        assert life["complete"]
        assert [mode for mode, _ in life["transitions"]] == [
            "fault-free",
            "degraded",
            "reconstruction",
            "post-reconstruction",
        ]
        assert set(life["mode_means_ms"]) == set(record["histograms"])
        assert record["progress"]
        assert record["spec"]["kind"] == "lifecycle"

    def test_rebuild_load_curves_assembly(self):
        report = ParallelRunner(workers=1).run(_specs())
        curves = rebuild_load_curves(report.records)
        assert set(curves) == set(LAYOUTS)
        for curve in curves.values():
            assert [c for c, _ in curve] == [1, 3]
            assert all(ms is not None and ms > 0 for _, ms in curve)
