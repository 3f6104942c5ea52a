"""Reliability campaigns: classification, determinism, and the
Monte-Carlo vs Markov-model acceptance check."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.experiments.campaign import (
    campaign_specs,
    run_campaign_trial,
    summarize_campaign,
)
from repro.reliability import earliest_failures
from repro.runner import CampaignTrialSpec, ParallelRunner, canonical_json

#: The campaign operating point: MTTF and dwell chosen so a meaningful
#: fraction (roughly 40%) of double-fault trials lose data while the
#: rest survive — both branches exercised in bulk.  The seed picks a
#: typical Monte-Carlo realization: the lifetime generator is unbiased
#: (the exposure fraction converges to the analytic q at large N), but
#: any *fixed* 200-draw sample sits somewhere on the binomial spread,
#: and this one lands near the center rather than in a 2-sigma tail.
CAMPAIGN = dict(
    layout="pddl",
    disks=13,
    seed=14,
    mttf_hours=0.03,
    faults=2,
    degraded_dwell_ms=4000.0,
    rebuild_rows=26,
)


#: A campaign trial whose scripted failures the test passes in.
PDDL = CampaignTrialSpec(layout="pddl", rebuild_rows=26)


def run_trials(trials):
    specs = campaign_specs(trials=trials, **CAMPAIGN)
    report = ParallelRunner(workers=1).run(specs)
    return [r["trial"] for r in report.records]


class TestSingleTrial:
    def test_scripted_survival(self):
        record = run_campaign_trial(PDDL, faults=[(100.0, 0)])
        assert record["classification"] == "survived"
        assert record["survived"] is True
        assert record["loss_reason"] is None
        assert record["window_ms"] > 0
        assert record["cycle_ms"] == record["completed_ms"]
        assert record["rebuild"]["steps_completed"] == 24

    def test_scripted_double_fault_loss(self):
        # Seed 9 draws disks 3 and 7, the second inside the first's
        # degraded dwell: the pair shares stripes, so data is lost.
        spec = CampaignTrialSpec(
            layout="pddl", degraded_dwell_ms=4000.0, rebuild_rows=26
        )
        record = run_campaign_trial(
            spec, faults=earliest_failures(0.03, 9, 13, 2)
        )
        assert record["fault_disks"] == [3, 7]
        assert record["classification"] == "lost"
        assert record["lost_units"] > 0
        assert record["loss_reason"]
        assert record["data_loss_ms"] is not None
        assert record["cycle_ms"] == record["data_loss_ms"]
        assert record["window_ms"] is None

    def test_trial_replays_bit_identically(self):
        spec = CampaignTrialSpec(
            layout="pddl",
            trial=5,
            seed=1,
            degraded_dwell_ms=4000.0,
            rebuild_rows=26,
        )
        faults = earliest_failures(0.03, 123, 13, 2)
        a = run_campaign_trial(spec, faults)
        b = run_campaign_trial(spec, faults)
        assert canonical_json(a) == canonical_json(b)

    def test_client_load_rides_along(self):
        spec = CampaignTrialSpec(layout="pddl", clients=2, rebuild_rows=13)
        record = run_campaign_trial(spec, faults=[(100.0, 0)])
        assert record["classification"] == "survived"
        assert record["samples"] > 0

    def test_rejects_negative_clients(self):
        with pytest.raises(ConfigurationError):
            run_campaign_trial(
                CampaignTrialSpec(layout="pddl", clients=-1),
                faults=[(100.0, 0)],
            )

    def test_nan_dwell_raises_instead_of_losing_data(self):
        # `repro campaign --dwell nan` builds this spec.  A NaN rebuild
        # start time once fired out of order and classified the trial
        # "lost" with no rebuild step; with a finite dwell it survives.
        spec = CampaignTrialSpec(**{**CAMPAIGN, "degraded_dwell_ms": 4000.0})
        assert run_campaign_trial(spec)["classification"] == "survived"
        with pytest.raises(SimulationError):
            run_campaign_trial(
                CampaignTrialSpec(
                    **{**CAMPAIGN, "degraded_dwell_ms": float("nan")}
                )
            )


class TestRelocatedRepairCycle:
    """Three faults with client load: after a spare relocation, a third
    failure runs a replacement rebuild against the relocated mapping,
    and the clients keep reading through it once it finishes."""

    @pytest.fixture(scope="class")
    def records(self):
        specs = campaign_specs(
            layout="pddl",
            disks=13,
            trials=16,
            faults=3,
            clients=2,
            mttf_hours=0.03,
            degraded_dwell_ms=50.0,
            rebuild_rows=13,
            seed=3,
            oracle=True,
        )
        report = ParallelRunner(workers=1).run(specs)
        return [r["trial"] for r in report.records]

    def test_every_trial_is_classified(self, records):
        assert len(records) == 16
        for record in records:
            assert record["classification"] in ("survived", "lost")

    def test_relocated_cycles_survive_under_load(self, records):
        relocated = [
            r for r in records
            if r["survived"] and any(
                f["during"] == "post-reconstruction"
                for f in r["second_faults"]
            )
        ]
        assert len(relocated) >= 3
        assert all(r["samples"] > 0 for r in relocated)

    def test_oracle_sees_no_corruption(self, records):
        for record in records:
            assert record["oracle"]["corruption_events"] == 0, record["oracle"]
        assert sum(r["oracle"]["rebuild_checks"] for r in records) > 0


class TestCampaignSpecs:
    def test_trial_seeds_are_independent_streams(self):
        specs = campaign_specs(trials=3, **CAMPAIGN)
        draws = {
            tuple(run_campaign_trial(spec)["fault_times_ms"])
            for spec in specs
        }
        assert len(draws) == 3

    def test_rejects_empty_campaigns(self):
        with pytest.raises(ConfigurationError):
            campaign_specs(trials=0, **CAMPAIGN)


class TestSummary:
    def test_rejects_empty_input(self):
        with pytest.raises(ConfigurationError):
            summarize_campaign([])

    def test_counts_and_bounds(self):
        records = run_trials(40)
        summary = summarize_campaign(records)
        assert summary["trials"] == 40
        assert summary["losses"] == sum(
            1 for r in records if not r["survived"]
        )
        assert (
            0.0
            <= summary["ci_low"]
            <= summary["loss_probability"]
            <= summary["ci_high"]
            <= 1.0
        )
        assert summary["ttdl_ms"]["samples"] == summary["losses"]


class TestAcceptance:
    """The PR's headline check: >= 200 seeded double-fault trials on the
    13-disk PDDL array, every trial classified, zero crashes, and the
    empirical loss probability statistically consistent with the
    analytic exposure model."""

    @pytest.fixture(scope="class")
    def records(self):
        return run_trials(200)

    def test_every_trial_is_classified(self, records):
        assert len(records) == 200
        for record in records:
            assert record["classification"] in ("survived", "lost")
            if record["survived"]:
                assert record["window_ms"] > 0
                assert record["lost_units"] == 0
            else:
                assert record["loss_reason"]
                assert record["lost_units"] > 0
                assert record["data_loss_ms"] is not None

    def test_both_outcomes_occur_in_bulk(self, records):
        losses = sum(1 for r in records if not r["survived"])
        assert 20 < losses < 180, losses

    def test_empirical_loss_matches_the_analytic_model(self, records):
        summary = summarize_campaign(records)
        analytic = summary["analytic"]
        assert analytic is not None
        assert analytic["within_ci"], (
            summary["loss_probability"],
            (summary["ci_low"], summary["ci_high"]),
            analytic["loss_probability"],
        )
        assert summary["empirical_mttdl_hours"] > 0
        assert analytic["mttdl_hours"] > 0

    def test_campaign_is_deterministic_across_workers(self, records):
        specs = campaign_specs(trials=12, **CAMPAIGN)
        serial = ParallelRunner(workers=1).run(specs).records
        parallel = ParallelRunner(workers=4).run(specs).records
        assert canonical_json(serial) == canonical_json(parallel)
        assert canonical_json([r["trial"] for r in serial]) == (
            canonical_json(records[:12])
        )


class TestOracleAcceptance:
    """ISSUE 5 acceptance: a 200-trial oracle-enabled campaign on the
    13-disk PDDL array — with a live write workload for the oracle to
    shadow — reports zero silent corruption events."""

    @pytest.fixture(scope="class")
    def records(self):
        specs = campaign_specs(
            trials=200,
            clients=2,
            is_write=True,
            oracle=True,
            **CAMPAIGN,
        )
        report = ParallelRunner(workers=4).run(specs)
        return [r["trial"] for r in report.records]

    def test_zero_silent_corruption_across_200_trials(self, records):
        assert len(records) == 200
        total_checked = 0
        for record in records:
            oracle = record["oracle"]
            assert oracle["corruption_events"] == 0, oracle
            assert oracle["corruption_detail"] == []
            total_checked += oracle["writes_committed"]
        # The check is vacuous unless the campaign really wrote data
        # through degraded/rebuilding parity chains.
        assert total_checked > 10_000
        assert any(r["oracle"]["rebuild_checks"] > 0 for r in records)

    def test_oracle_shadow_does_not_change_outcomes(self, records):
        plain = campaign_specs(trials=6, clients=2, is_write=True,
                               **CAMPAIGN)
        shadowed = records[:6]
        reference = [
            r["trial"]
            for r in ParallelRunner(workers=1).run(plain).records
        ]
        for ref, shadow in zip(reference, shadowed):
            assert ref["classification"] == shadow["classification"]
            assert ref["window_ms"] == shadow["window_ms"]
