"""Open-loop traffic trials: phases, overload, determinism."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments.openloop import (
    openloop_specs,
    run_openloop_trial,
    summarize_openloop,
)
from repro.runner import (
    OpenLoopSpec,
    ParallelRunner,
    canonical_json,
    execute_spec,
)


def trial(layout, rate_per_s, **fields):
    return run_openloop_trial(
        OpenLoopSpec(layout=layout, rate_per_s=rate_per_s, **fields)
    )


class TestTrialMechanics:
    def test_fault_free_trial_accounts_every_arrival(self):
        record = trial("pddl", 300.0, arrivals=80)
        assert record["offered"] == 80
        assert record["completed"] + record["shed"] == 80
        assert record["truncated"] is False
        assert record["modes"] == {"fault-free": 80}
        assert record["tail"]["count"] == record["completed"]
        json.dumps(record)  # the record must be JSON-able as-is

    def test_degraded_phase_serves_in_degraded_mode(self):
        record = trial(
            "raid5", 300.0, phase="degraded", arrivals=60
        )
        assert set(record["modes"]) == {"degraded"}
        # The dwell outlasts the run: the rebuild never starts.
        assert record["rebuild"]["steps"] == 0
        assert record["rebuild"]["finished"] is False

    def test_rebuild_phase_serves_mid_rebuild(self):
        record = trial(
            "pddl", 300.0, phase="rebuild", arrivals=60
        )
        assert set(record["modes"]) == {"reconstruction"}
        # The throttled full-disk sweep outlasts the measurement window.
        assert record["rebuild"]["steps"] > 0
        assert record["rebuild"]["finished"] is False
        assert 0.0 < record["rebuild"]["fraction"] < 1.0

    def test_rebuild_tail_dominates_fault_free_tail(self):
        ff = trial("raid5", 450.0, arrivals=200)
        rebuild = trial(
            "raid5", 450.0, phase="rebuild", arrivals=200
        )
        assert rebuild["tail"]["p999_ms"] > ff["tail"]["p999_ms"]

    def test_overload_at_saturating_rate(self):
        record = trial(
            "raid5",
            900.0,
            phase="rebuild",
            arrivals=300,
            queue_depth=32,
        )
        assert record["overloaded"] is True
        assert record["shed"] > 0

    def test_horizon_truncates(self):
        record = trial(
            "pddl", 100.0, arrivals=400, horizon_ms=500.0
        )
        assert record["truncated"] is True
        assert record["completed"] + record["shed"] < 400

    def test_timelines_opt_in(self):
        record = trial(
            "pddl", 400.0, arrivals=60, timelines=True
        )
        assert "timelines" in record
        assert record["timelines"]["queue_depth"]
        lean = trial("pddl", 400.0, arrivals=60)
        assert "timelines" not in lean

    def test_mmpp_and_trace_arrivals_run(self):
        for arrival in ("mmpp", "trace"):
            record = trial(
                "datum", 300.0, arrival=arrival, arrivals=60
            )
            assert record["arrival"] == arrival
            assert record["completed"] + record["shed"] == 60

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            trial("pddl", 300.0, phase="mid-air")
        with pytest.raises(ConfigurationError):
            trial("pddl", 300.0, arrivals=0)
        with pytest.raises(ConfigurationError):
            trial("pddl", 300.0, arrival="constant")
        with pytest.raises(ConfigurationError):
            trial("pddl", 300.0, horizon_ms=0.0)


class TestSummary:
    def test_knees_and_divergence(self):
        records = []
        for rate in (350.0, 450.0):
            for phase in ("ff", "rebuild"):
                records.append(
                    trial(
                        "raid5", rate, phase=phase, arrivals=300
                    )
                )
        summary = summarize_openloop(records)
        assert summary["trials"] == 4
        # The committed baseline's raid5 story: rebuild overloads at
        # 350/s while fault-free stays healthy until past 450/s.
        assert summary["knees"]["raid5"]["rebuild"] == 350.0
        assert summary["knees"]["raid5"]["ff"] is None
        diverging = [d["rate_per_s"] for d in summary["divergence"]]
        assert 350.0 in diverging

    def test_spec_builder_covers_the_grid(self):
        specs = openloop_specs(
            ["pddl", "raid5"], [300.0, 500.0], phases=["ff", "rebuild"]
        )
        assert len(specs) == 8
        assert {s.kind for s in specs} == {"openloop"}
        assert {(s.layout, s.rate_per_s, s.phase) for s in specs} == {
            (layout, rate, phase)
            for layout in ("pddl", "raid5")
            for rate in (300.0, 500.0)
            for phase in ("ff", "rebuild")
        }


class TestRunnerIntegration:
    def test_execute_spec_wraps_the_trial(self):
        spec = OpenLoopSpec(layout="pddl", rate_per_s=300.0, arrivals=60)
        record = execute_spec(spec)
        assert record["kind"] == "openloop"
        assert record["openloop"]["completed"] + record["openloop"][
            "shed"
        ] == 60
        assert record["spec"]["layout"] == "pddl"

    def test_serial_vs_parallel_byte_identity(self):
        specs = openloop_specs(
            ["raid5", "pddl"],
            [350.0, 550.0],
            phases=["ff", "rebuild"],
            arrivals=100,
        )
        serial = ParallelRunner(workers=1).run(specs)
        parallel = ParallelRunner(workers=4).run(specs)
        assert serial.executed == parallel.executed == len(specs)
        assert canonical_json(serial.records) == canonical_json(
            parallel.records
        )

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            OpenLoopSpec(layout="pddl", rate_per_s=-1.0)
        with pytest.raises(ConfigurationError):
            OpenLoopSpec(layout="pddl", phase="sideways")
        with pytest.raises(ConfigurationError):
            OpenLoopSpec(layout="pddl", arrival="bursts")
        with pytest.raises(ConfigurationError):
            OpenLoopSpec(layout="pddl", slo_p99_ms=200.0, slo_p999_ms=100.0)
        with pytest.raises(ConfigurationError):
            OpenLoopSpec(layout="pddl", failed_disk=13)
