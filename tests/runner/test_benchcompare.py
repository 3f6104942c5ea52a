"""Unit tests for the bench-regression gate."""

import copy
import json
from pathlib import Path

import pytest

from repro.errors import RunnerError
from repro.experiments.campaign import campaign_specs
from repro.experiments.corruption import corruption_specs
from repro.experiments.crashtrial import crash_specs
from repro.experiments.failslow import failslow_specs
from repro.experiments.nemesistrial import nemesis_specs
from repro.experiments.openloop import openloop_specs
from repro.runner.benchcompare import (
    KNOWN_BENCHES,
    check_invariants,
    compare_reports,
    diff_reports,
    load_report,
    run_compare,
)
from repro.runner.provenance import sweep_hash

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Each trial kind's spec builder; a committed report's ``config`` block
#: is that builder's keyword arguments.
SPEC_BUILDERS = {
    "campaign": campaign_specs,
    "corruption": corruption_specs,
    "crash": crash_specs,
    "failslow": failslow_specs,
    "nemesis": nemesis_specs,
    "traffic": openloop_specs,
}


def committed(kind):
    return load_report(str(REPO_ROOT / f"BENCH_{kind}.json"))


def nemesis_report():
    return {
        "bench": "nemesis",
        "provenance": {
            "source_version": "abc1234",
            "spec_schema": 1,
            "spec_count": 2,
            "sweep_hash": "f" * 64,
        },
        "config": {"layout": "pddl", "disks": 13, "trials": 2, "seed": 0},
        "summary": {
            "trials": 2,
            "survived": 1,
            "data_loss": 1,
            "silent_corruption": 0,
            "corruption_events": 0,
            "failing_trials": [],
        },
        "trials": [
            {"trial": 0, "classification": "survived",
             "corruption_events": 0},
            {"trial": 1, "classification": "data_loss",
             "corruption_events": 0},
        ],
    }


def campaign_report():
    return {
        "bench": "campaign",
        "config": {"layout": "pddl"},
        "summary": {
            "trials": 1,
            "losses": 0,
            "loss_probability": 0.0,
            "ci_low": 0.0,
            "ci_high": 0.14,
        },
        "trials": [{"trial": 0}],
    }


class TestCheckInvariants:
    def test_healthy_reports_pass(self):
        assert check_invariants(nemesis_report()) == []
        assert check_invariants(campaign_report()) == []

    def test_silent_corruption_is_a_hard_fail(self):
        report = nemesis_report()
        report["summary"]["silent_corruption"] = 1
        report["summary"]["survived"] = 0
        report["summary"]["failing_trials"] = [1]
        problems = check_invariants(report)
        assert any("SILENT_CORRUPTION" in p for p in problems)
        assert any("[1]" in p for p in problems)

    def test_outcome_sum_mismatch(self):
        report = nemesis_report()
        report["summary"]["survived"] = 5
        assert any("sum" in p for p in check_invariants(report))

    def test_trial_count_mismatch(self):
        report = nemesis_report()
        report["trials"].pop()
        assert any("recorded" in p for p in check_invariants(report))

    def test_campaign_ci_must_bracket_estimate(self):
        report = campaign_report()
        report["summary"]["ci_low"] = 0.5
        assert any("bracket" in p for p in check_invariants(report))

    def test_unknown_bench_kind(self):
        assert check_invariants({"bench": "mystery"}) == [
            "unknown bench kind 'mystery'"
        ]

    def test_truncated_report_is_malformed_not_a_crash(self):
        problems = check_invariants({"bench": "nemesis"})
        assert problems and "malformed" in problems[0]


class TestDiffReports:
    def test_identical_modulo_version_stamp(self):
        a, b = nemesis_report(), nemesis_report()
        b["provenance"]["source_version"] = "def5678-dirty"
        assert diff_reports(a, b) == []

    def test_value_change_is_located(self):
        a, b = nemesis_report(), nemesis_report()
        b["trials"][1]["classification"] = "survived"
        diffs = diff_reports(a, b)
        assert diffs == [
            "trials[1].classification: 'data_loss' vs 'survived'"
        ]

    def test_length_change_reported_once(self):
        a, b = nemesis_report(), nemesis_report()
        b["trials"].append({"trial": 2})
        assert diff_reports(a, b) == ["trials: 2 vs 3 entries"]

    def test_limit_caps_output(self):
        a = {"bench": "x", "v": list(range(100))}
        b = {"bench": "x", "v": [n + 1 for n in range(100)]}
        assert len(diff_reports(a, b, limit=3)) == 3


class TestCompareReports:
    def test_no_shift_no_problems(self):
        assert compare_reports(nemesis_report(), nemesis_report()) == []

    def test_summary_level_shift_named_with_versions(self):
        base, cand = nemesis_report(), nemesis_report()
        cand["provenance"]["source_version"] = "def5678"
        cand["summary"]["survived"] = 2
        cand["summary"]["data_loss"] = 0
        shifts = compare_reports(base, cand)
        assert any(
            "summary.survived" in s and "abc1234" in s and "def5678" in s
            for s in shifts
        )

    def test_kind_mismatch_is_incomparable(self):
        shifts = compare_reports(nemesis_report(), campaign_report())
        assert shifts == [
            "bench kinds differ: 'nemesis' vs 'campaign'"
            " — nothing to compare"
        ]

    def test_config_mismatch_stops_comparison(self):
        base, cand = nemesis_report(), nemesis_report()
        cand["config"]["seed"] = 99
        shifts = compare_reports(base, cand)
        assert shifts == [
            "configs differ — these reports measured different sweeps"
        ]

    def test_sweep_hash_mismatch_stops_comparison(self):
        # Equal config blocks can still hide different sweeps: campaign
        # leaves its rebuild/scrub pacing flags out of the block.
        base = committed("campaign")
        cand = copy.deepcopy(base)
        cand["provenance"]["sweep_hash"] = "0" * 64
        assert compare_reports(base, cand) == [
            "sweep hashes differ — these reports measured different sweeps"
        ]


def corruption_report():
    def ledger(silent=0):
        return {
            "injected": {"lost-write": 2, "misdirected-write": 1,
                         "bit-rot": 0, "parity-pollution": 0},
            "detected": {"lost-write": 2 - silent, "misdirected-write": 1,
                         "bit-rot": 0, "parity-pollution": 0},
            "silent": {"lost-write": silent, "misdirected-write": 0,
                       "bit-rot": 0, "parity-pollution": 0},
            "repaired": {"lost-write": 2 - silent, "misdirected-write": 1,
                         "bit-rot": 0, "parity-pollution": 0},
            "cells_corrupted": 3,
            "remaining": 0,
            "silent_total": silent,
            "detected_total": 3 - silent,
        }

    return {
        "bench": "corruption",
        "provenance": {
            "source_version": "abc1234",
            "spec_schema": 1,
            "spec_count": 2,
            "sweep_hash": "f" * 64,
        },
        "config": {"layouts": ["pddl"], "defenses": ["none", "checksum"],
                   "trials": 1, "seed": 0},
        "summary": {
            "trials": 2,
            "silent_by_defense": {"none": 2, "checksum": 0},
            "defended_silent_total": 0,
            "undefended_silent_total": 2,
        },
        "trials": [
            {"layout": "pddl", "defense": "none", "trial": 0,
             "classification": "silent_corruption",
             "offered": 100, "completed": 98, "shed": 2,
             "corruption": ledger(silent=2)},
            {"layout": "pddl", "defense": "checksum", "trial": 0,
             "classification": "detected_and_repaired",
             "offered": 100, "completed": 97, "shed": 3,
             "corruption": ledger(silent=0)},
        ],
    }


class TestCorruptionInvariants:
    def test_healthy_report_passes(self):
        assert check_invariants(corruption_report()) == []

    def test_defended_silent_corruption_is_a_hard_fail(self):
        report = corruption_report()
        report["trials"][1]["corruption"]["silent_total"] = 1
        report["trials"][1]["corruption"]["silent"]["lost-write"] = 1
        report["summary"]["silent_by_defense"]["checksum"] = 1
        report["summary"]["defended_silent_total"] = 1
        problems = check_invariants(report)
        assert any("defended tiers" in p for p in problems)
        assert any("'checksum'" in p for p in problems)
        assert any("pddl/checksum#0" in p for p in problems)

    def test_defended_silent_classification_flagged(self):
        report = corruption_report()
        report["trials"][1]["classification"] = "silent_corruption"
        problems = check_invariants(report)
        assert any("classified" in p for p in problems)

    def test_ledger_sum_mismatch(self):
        report = corruption_report()
        report["trials"][0]["corruption"]["silent_total"] = 5
        assert any(
            "per-kind silent ledger" in p
            for p in check_invariants(report)
        )

    def test_admission_accounting_must_balance(self):
        report = corruption_report()
        report["trials"][0]["completed"] = 10
        assert any("!= offered" in p for p in check_invariants(report))

    def test_trial_count_mismatch(self):
        report = corruption_report()
        report["trials"].pop()
        report["summary"]["silent_by_defense"]["checksum"] = 0
        assert any("recorded" in p for p in check_invariants(report))

    def test_undefended_silence_is_allowed(self):
        # The 'none' tier SHOULD show silent corruption — that is the
        # point of the bench; only defended tiers are gated.
        report = corruption_report()
        assert check_invariants(report) == []


class TestComparerRegistry:
    def test_every_known_bench_has_checker_and_comparer(self):
        from repro.runner.benchcompare import _CHECKERS, _COMPARERS

        for kind in KNOWN_BENCHES:
            assert kind in _CHECKERS, kind
            assert kind in _COMPARERS, kind

    def test_unknown_kind_is_a_named_problem_not_a_pass(self):
        base = {"bench": "mystery", "config": None}
        problems = compare_reports(base, copy.deepcopy(base))
        assert problems == [
            "no comparer registered for bench kind 'mystery'"
            " — cannot gate on this baseline"
        ]

    def test_corruption_reports_use_trial_sweep_comparer(self):
        base, cand = corruption_report(), corruption_report()
        cand["provenance"]["source_version"] = "def5678"
        cand["summary"]["defended_silent_total"] = 1
        cand["trials"][1]["corruption"]["silent_total"] = 1
        shifts = compare_reports(base, cand)
        assert any("summary.defended_silent_total" in s for s in shifts)
        assert any("trials[1]" in s for s in shifts)


class TestRunCompare:
    def test_missing_file_is_a_problem_line(self, tmp_path):
        problems = run_compare([str(tmp_path / "nope.json")])
        assert len(problems) == 1
        assert "cannot read" in problems[0]

    def test_non_json_is_a_problem_line(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        path.write_text("{half a report")
        problems = run_compare([str(path)])
        assert len(problems) == 1
        assert "not JSON" in problems[0]

    def test_all_failing_files_reported_in_one_run(self, tmp_path):
        """One bad baseline must not mask the others: every failing
        file appears in a single pass, readable ones still checked."""
        missing = tmp_path / "BENCH_missing.json"
        broken = tmp_path / "BENCH_broken.json"
        broken.write_text("{half a report")
        good = tmp_path / "BENCH_nemesis.json"
        good.write_text(json.dumps(nemesis_report()))
        problems = run_compare([str(missing), str(broken), str(good)])
        assert len(problems) == 2
        assert any("cannot read" in p and "missing" in p for p in problems)
        assert any("not JSON" in p and "broken" in p for p in problems)

    def test_unreadable_candidate_is_a_problem_line(self, tmp_path):
        base = tmp_path / "base.json"
        base.write_text(json.dumps(nemesis_report()))
        problems = run_compare(
            [str(base)], candidate_path=str(tmp_path / "nope.json")
        )
        assert len(problems) == 1
        assert "cannot read" in problems[0]

    def test_no_readable_baseline_for_candidate(self, tmp_path):
        cand = tmp_path / "cand.json"
        cand.write_text(json.dumps(nemesis_report()))
        problems = run_compare(
            [str(tmp_path / "nope.json")], candidate_path=str(cand)
        )
        assert any("cannot read" in p for p in problems)
        assert any("no readable baseline" in p for p in problems)

    def test_candidate_without_baseline_raises(self, tmp_path):
        path = tmp_path / "cand.json"
        path.write_text(json.dumps(nemesis_report()))
        with pytest.raises(RunnerError, match="needs a --baseline"):
            run_compare([], candidate_path=str(path))

    def test_exact_mode_flags_any_simulated_drift(self, tmp_path):
        base = tmp_path / "base.json"
        cand = tmp_path / "cand.json"
        base.write_text(json.dumps(nemesis_report()))
        drifted = nemesis_report()
        drifted["trials"][0]["corruption_events"] = 0
        drifted["summary"]["data_loss"] = 1
        drifted["trials"][1]["classification"] = "survived"
        drifted["summary"]["survived"] = 1
        cand.write_text(json.dumps(drifted))
        problems = run_compare(
            [str(base)], candidate_path=str(cand), exact=True
        )
        assert any("classification" in p for p in problems)


def failslow_report():
    tail = {
        "count": 100,
        "p50_ms": 10.0,
        "p99_ms": 50.0,
        "p999_ms": 80.0,
        "max_ms": 90.0,
    }
    return {
        "bench": "failslow",
        "provenance": {
            "source_version": "abc1234",
            "spec_schema": 1,
            "spec_count": 2,
            "sweep_hash": "f" * 64,
        },
        "config": {"layouts": ["pddl"], "seed": 0},
        "summary": {
            "trials": 2,
            "truncated_trials": 0,
            "slo_violated_trials": 1,
            "hedging": {
                "pddl": {
                    "none_p999_ms": 80.0,
                    "hedge_p999_ms": 40.0,
                    "launched": 10,
                    "won": 6,
                    "win_rate": 0.6,
                    "quarantines": 1,
                }
            },
            "adaptive": {},
        },
        "trials": [
            {
                "layout": "pddl",
                "defense": "none",
                "offered": 100,
                "completed": 100,
                "shed": 0,
                "tail": dict(tail),
            },
            {
                "layout": "pddl",
                "defense": "hedge",
                "offered": 100,
                "completed": 98,
                "shed": 2,
                "tail": dict(tail),
                "hedging": {"launched": 10, "won": 6, "lost": 4,
                            "aborts": 1},
            },
        ],
    }


class TestFailslowInvariants:
    def test_healthy_report_passes(self):
        assert check_invariants(failslow_report()) == []

    def test_missing_provenance_flagged(self):
        report = failslow_report()
        del report["provenance"]
        assert any(
            "provenance" in p for p in check_invariants(report)
        )

    def test_missing_provenance_names_the_file(self, tmp_path):
        report = failslow_report()
        del report["provenance"]
        path = tmp_path / "BENCH_failslow.json"
        path.write_text(json.dumps(report))
        problems = run_compare([str(path)])
        assert problems
        assert all(str(path) in p for p in problems)

    def test_hedge_wins_cannot_exceed_launches(self):
        report = failslow_report()
        report["trials"][1]["hedging"]["won"] = 20
        problems = check_invariants(report)
        assert any("exceed launches" in p for p in problems)
        assert any("wins" in p for p in problems)

    def test_hedging_defense_requires_counters(self):
        report = failslow_report()
        del report["trials"][1]["hedging"]
        assert any(
            "lacks counters" in p for p in check_invariants(report)
        )

    def test_counters_on_undefended_trial_flagged(self):
        report = failslow_report()
        report["trials"][0]["hedging"] = {
            "launched": 1, "won": 1, "lost": 0, "aborts": 0
        }
        assert any(
            "non-hedging" in p for p in check_invariants(report)
        )

    def test_summary_win_rate_consistency(self):
        report = failslow_report()
        report["summary"]["hedging"]["pddl"]["won"] = 99
        assert any(
            "summary.hedging" in p for p in check_invariants(report)
        )

    def test_accounting_mismatch_flagged(self):
        report = failslow_report()
        report["trials"][0]["completed"] = 90
        assert any("offered" in p for p in check_invariants(report))

    def test_summary_level_shift_detected(self):
        baseline = failslow_report()
        candidate = failslow_report()
        candidate["summary"]["slo_violated_trials"] = 2
        candidate["trials"][0]["tail"]["p99_ms"] = 60.0
        problems = compare_reports(baseline, candidate)
        assert any("slo_violated_trials" in p for p in problems)
        assert any("p99_ms" in p for p in problems)


class TestCommittedBaselines:
    """Every committed BENCH_*.json must pass its own invariant check."""

    @pytest.mark.parametrize("kind", KNOWN_BENCHES)
    def test_baseline_self_check(self, kind):
        path = REPO_ROOT / f"BENCH_{kind}.json"
        if not path.exists():
            pytest.skip(f"{path.name} not committed yet")
        report = load_report(str(path))
        assert check_invariants(report) == []

    @pytest.mark.parametrize("kind", sorted(SPEC_BUILDERS))
    def test_config_rebuilds_sweep_hash(self, kind):
        report = committed(kind)
        specs = SPEC_BUILDERS[kind](**report["config"])
        assert sweep_hash(specs) == report["provenance"]["sweep_hash"]

    def test_traffic_rebuild_tail_diverges_from_fault_free(self):
        divergence = committed("traffic")["summary"]["divergence"]
        # At least one offered load where the mid-rebuild array enters
        # detected overload while the fault-free array does not.
        assert "raid5" in {entry["layout"] for entry in divergence}
        for entry in divergence:
            assert entry["rebuild_p999_ms"] > entry["ff_p999_ms"], entry

    def test_failslow_defenses_beat_no_defense_for_pddl(self):
        summary = committed("failslow")["summary"]
        hedging = summary["hedging"]["pddl"]
        adaptive = summary["adaptive"]["pddl"]
        assert hedging["hedge_p999_ms"] < hedging["none_p999_ms"]
        assert hedging["both_p999_ms"] < hedging["hedge_p999_ms"]
        assert hedging["won"] > 0
        # The AIMD rebuild restores the foreground p99 SLO at a bounded
        # rebuild-time cost.
        assert adaptive["none_p99_violated"]
        assert not adaptive["adaptive_p99_violated"]
        assert adaptive["rebuild_inflation"] < 10.0

    def test_corruption_defended_tiers_serve_no_silent_corruption(self):
        report = committed("corruption")
        summary = report["summary"]
        silent = summary["silent_by_defense"]
        assert silent["none"] > 0
        assert summary["undefended_silent_total"] > 0
        for defense in ("checksum", "verify", "audit"):
            assert silent[defense] == 0
        assert summary["defended_silent_total"] == 0
        for layout, costs in summary["latency_cost_vs_none"].items():
            for defense, factor in costs.items():
                if defense != "none":
                    assert 1.0 < factor < 3.0, (layout, defense, factor)
        for trial in report["trials"]:
            if trial["defense"] != "none":
                assert trial["corruption"]["silent_total"] == 0, trial
                assert trial["classification"] != "silent_corruption"

    def test_crash_journal_recovers_every_trial_faster(self):
        report = committed("crash")
        summary = report["summary"]
        assert summary["corruption_events"] == 0
        assert summary["data_loss_trials"] == 0
        assert summary["resync_speedup"] > 2.0
        for trial in report["trials"]:
            assert trial["classification"] == "recovered", trial
            assert trial["resync_ms"] > 0, trial
