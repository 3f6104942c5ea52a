"""Corruption defense trials: tier contract, mechanics, determinism."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments.corruption import (
    DEFENSES,
    OUTCOMES,
    corruption_specs,
    run_corruption_trial,
    summarize_corruption,
)
from repro.runner import (
    CorruptionTrialSpec,
    ParallelRunner,
    canonical_json,
    execute_spec,
)

# Small-but-meaningful: enough arrivals over a tight working set that
# corrupt cells are actually re-read within the trial.
QUICK = dict(arrivals=120, trial=0, seed=0)


def trial(layout, defense, **fields):
    return run_corruption_trial(
        CorruptionTrialSpec(layout=layout, defense=defense, **fields)
    )


class TestTrialMechanics:
    def test_trial_accounts_every_arrival(self):
        record = trial("pddl", "none", **QUICK)
        assert record["offered"] == 120
        assert record["completed"] + record["shed"] == 120
        assert record["classification"] in OUTCOMES
        json.dumps(record)  # the record must be JSON-able as-is

    def test_defense_keys_are_gated(self):
        none = trial("pddl", "none", **QUICK)
        assert "checksum" not in none
        assert "scrub_audit" not in none
        checksum = trial("pddl", "checksum", **QUICK)
        assert "checksum" in checksum and "scrub_audit" not in checksum
        audit = trial("pddl", "audit", **QUICK)
        assert "checksum" in audit and "scrub_audit" in audit

    def test_undefended_trial_serves_silent_corruption(self):
        record = trial("pddl", "none", **QUICK)
        assert record["corruption"]["silent_total"] > 0
        assert record["classification"] == "silent_corruption"
        assert record["oracle"]["corruption_events"] > 0

    @pytest.mark.parametrize("defense", ["checksum", "verify", "audit"])
    def test_defended_tiers_never_serve_garbage(self, defense):
        record = trial("pddl", defense, **QUICK)
        ledger = record["corruption"]
        assert ledger["silent_total"] == 0
        assert ledger["detected_total"] > 0
        assert record["classification"] == "detected_and_repaired"
        assert record["oracle"]["corruption_events"] == 0

    def test_audit_drains_latent_cells(self):
        checksum = trial("pddl", "checksum", **QUICK)
        audit = trial("pddl", "audit", **QUICK)
        assert audit["corruption"]["remaining"] <= checksum[
            "corruption"
        ]["remaining"]
        assert audit["scrub_audit"]["stripes_audited"] > 0

    def test_defenses_cost_latency(self):
        none = trial("pddl", "none", **QUICK)
        verify = trial("pddl", "verify", **QUICK)
        assert (
            verify["latency"]["write"]["mean_ms"]
            > none["latency"]["write"]["mean_ms"]
        )

    def test_degraded_trial_still_defended(self):
        record = trial(
            "pddl", "checksum", fail_at_ms=5_000.0, **QUICK
        )
        assert record["corruption"]["silent_total"] == 0
        assert record["transitions"]

    def test_trials_decorrelate(self):
        a = trial("pddl", "none", arrivals=120, trial=0)
        b = trial("pddl", "none", arrivals=120, trial=1)
        assert (
            a["corruption"]["cells_corrupted"]
            != b["corruption"]["cells_corrupted"]
            or a["latency"]["all"]["mean_ms"]
            != b["latency"]["all"]["mean_ms"]
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            trial("pddl", "prayer", **QUICK)
        with pytest.raises(ConfigurationError):
            trial("pddl", "none", lost_rate=1.5)
        with pytest.raises(ConfigurationError):
            trial("pddl", "none", arrivals=0)
        with pytest.raises(ConfigurationError):
            trial("pddl", "none", span_units=0)


class TestSummary:
    def test_spec_builder_covers_the_grid(self):
        specs = corruption_specs(["raid5", "pddl"], trials=3)
        assert len(specs) == 2 * len(DEFENSES) * 3
        assert {s.layout for s in specs} == {"raid5", "pddl"}
        assert {s.defense for s in specs} == set(DEFENSES)

    def test_summary_contrasts_tiers(self):
        records = [
            trial("pddl", defense, **QUICK)
            for defense in DEFENSES
        ]
        summary = summarize_corruption(records)
        assert summary["trials"] == len(DEFENSES)
        assert summary["undefended_silent_total"] > 0
        assert summary["defended_silent_total"] == 0
        assert summary["silent_by_defense"]["none"] > 0
        for defense in ("checksum", "verify", "audit"):
            assert summary["silent_by_defense"][defense] == 0
        assert summary["latency_cost_vs_none"]["pddl"]["verify"] > 1.0

    def test_summary_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            summarize_corruption([])


class TestRunnerIntegration:
    def test_execute_spec_wraps_the_trial(self):
        spec = CorruptionTrialSpec(layout="pddl", defense="checksum",
                                   arrivals=120)
        record = execute_spec(spec)
        assert record["kind"] == "corruption"
        trial = record["corruption"]
        assert trial["completed"] + trial["shed"] == 120
        assert record["spec"]["layout"] == "pddl"

    def test_serial_vs_parallel_byte_identity(self):
        specs = corruption_specs(
            ["raid5", "pddl"], defenses=("none", "audit"), trials=2,
            arrivals=120,
        )
        serial = ParallelRunner(workers=1).run(specs)
        parallel = ParallelRunner(workers=4).run(specs)
        assert serial.executed == parallel.executed == len(specs)
        assert canonical_json(serial.records) == canonical_json(
            parallel.records
        )

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            CorruptionTrialSpec(layout="pddl", defense="hope")
        with pytest.raises(ConfigurationError):
            CorruptionTrialSpec(layout="pddl", lost_rate=-0.1)
        with pytest.raises(ConfigurationError):
            CorruptionTrialSpec(layout="pddl", rate_per_s=0.0)
        with pytest.raises(ConfigurationError):
            CorruptionTrialSpec(layout="pddl", span_units=0)
