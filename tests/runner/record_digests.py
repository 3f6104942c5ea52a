"""Pinned record digests of short response, lifecycle, campaign,
nemesis, Table 1, crash, open-loop, fail-slow and corruption specs (and
their regenerator).

Each entry is the digest the repo benchmark checks its records with
(sha256 of the canonical record minus ``spec_hash``), so every simulated
value of these records, down to the last float digit, is pinned across
commits.  The specs are small enough that the whole set runs in a few
seconds.

To regenerate after an *intentional* change to simulation results
(review the diff first):

    PYTHONPATH=src python -m tests.runner.record_digests
"""

from __future__ import annotations

import json
from pathlib import Path

DIGESTS_PATH = Path(__file__).resolve().parents[1] / "data" / (
    "record_digests.json"
)


def pinned_specs() -> dict:
    """``{name: spec}``, in file order."""
    from repro.runner.spec import (
        CampaignTrialSpec,
        CorruptionTrialSpec,
        CrashTrialSpec,
        ExperimentSpec,
        FailSlowTrialSpec,
        LifecycleSpec,
        NemesisTrialSpec,
        OpenLoopSpec,
        Table1Spec,
    )

    return {
        "response-ff-read": ExperimentSpec(
            layout="pddl", size_kb=48, clients=4, max_samples=80, warmup=10
        ),
        "response-f1-read": ExperimentSpec(
            layout="raid5", size_kb=8, clients=4, mode="f1",
            max_samples=80, warmup=10,
        ),
        "response-post-read": ExperimentSpec(
            layout="pddl", size_kb=8, clients=4, mode="post",
            max_samples=80, warmup=10,
        ),
        **{
            f"response-f1-read-{layout}": ExperimentSpec(
                layout=layout, size_kb=48, clients=4, mode="f1",
                max_samples=80, warmup=10,
            )
            for layout in ("datum", "parity-declustering", "prime")
        },
        "response-f1-read-uncoalesced": ExperimentSpec(
            layout="pddl", size_kb=48, clients=4, mode="f1",
            coalesce=False, max_samples=80, warmup=10,
        ),
        "response-post-read-timelines": ExperimentSpec(
            layout="pddl", size_kb=48, clients=4, mode="post",
            timelines=True, max_samples=80, warmup=10,
        ),
        "response-f1-write": ExperimentSpec(
            layout="prime", size_kb=24, is_write=True, clients=2,
            mode="f1", max_samples=60, warmup=10,
        ),
        "lifecycle-oracle": LifecycleSpec(
            layout="parity-declustering", clients=2, fault_time_ms=200.0,
            degraded_dwell_ms=50.0, rebuild_rows=26, post_samples=20,
            max_samples=800, oracle=True,
        ),
        "campaign-clients-oracle-transient": CampaignTrialSpec(
            layout="pddl", trial=1, seed=3, mttf_hours=0.03, faults=1,
            degraded_dwell_ms=50.0, rebuild_rows=26, clients=2,
            transient_io_rate=0.3, oracle=True,
        ),
        "nemesis-checksums-failslow-corruption": NemesisTrialSpec(
            layout="pddl", trial=2, checksums=True, max_failslow=1,
            max_corruption_bursts=1,
        ),
        "table1-search": Table1Spec(k=5, g=4, restarts=20, max_steps=2000),
        "crash": CrashTrialSpec(
            layout="pddl", clients=2, crash_boundary=30,
            max_pre_samples=60, post_samples=20,
        ),
        # Reconstruction-mode client reads.
        "openloop-rebuild": OpenLoopSpec(
            layout="pddl", phase="rebuild", arrivals=200
        ),
        # Hedges and a quarantine: the completion path with op tracking.
        "failslow-hedge": FailSlowTrialSpec(
            layout="pddl", defense="hedge", arrivals=300
        ),
        # Checksum mismatches caught on the completion path.
        "corruption-checksum": CorruptionTrialSpec(
            layout="pddl", defense="checksum", arrivals=200
        ),
        # A second failure during reconstruction re-loses units already
        # rebuilt into spare cells; the trial survives.
        "campaign-second-failure-mid-rebuild": CampaignTrialSpec(
            layout="pddl", trial=68, seed=14, mttf_hours=0.03, faults=2,
            degraded_dwell_ms=4000.0, rebuild_rows=26,
        ),
        # A second failure after reconstruction, repaired through a
        # RelocatedView.
        "campaign-second-failure-relocated": CampaignTrialSpec(
            layout="pddl", trial=0, seed=14, mttf_hours=0.03, faults=2,
            degraded_dwell_ms=4000.0, rebuild_rows=26,
        ),
        # A survivable second failure during a rebuild onto a
        # replacement spindle.
        "campaign-second-failure-replacement": CampaignTrialSpec(
            layout="datum", trial=70, seed=14, mttf_hours=0.03, faults=2,
            degraded_dwell_ms=4000.0, rebuild_rows=26,
        ),
        # Full-sweep resync on a degraded array: recomputed stripes,
        # stripes skipped with lost parity and consistent ones.
        "crash-degraded-full-sweep": CrashTrialSpec(
            layout="pddl", clients=2, journal=False, crash_boundary=30,
            fail_disk_at_ms=5.0, max_pre_samples=60, post_samples=20,
        ),
        # The parity audit repairs mismatches from stripe peers.
        "corruption-audit": CorruptionTrialSpec(
            layout="pddl", defense="audit", arrivals=200
        ),
        # Degraded phase under MMPP bursts: a short queue sheds arrivals.
        "openloop-degraded-mmpp-shed": OpenLoopSpec(
            layout="pddl", phase="degraded", arrival="mmpp", arrivals=200,
            queue_depth=4, service_slots=4,
        ),
        # Trace arrivals with timelines, truncated at the horizon.
        "openloop-trace-timelines-truncated": OpenLoopSpec(
            layout="raid5", phase="ff", arrival="trace", arrivals=200,
            timelines=True, horizon_ms=400.0,
        ),
        # The rebuild ends after the last arrival, so the lifecycle's
        # transition stops the run.
        "failslow-both": FailSlowTrialSpec(
            layout="pddl", defense="both", arrivals=300
        ),
        # Write-verify read-backs.
        "corruption-verify": CorruptionTrialSpec(
            layout="raid5", defense="verify", arrivals=200
        ),
        # A disk fails mid-trial; the run is truncated at the horizon.
        "corruption-degraded-truncated": CorruptionTrialSpec(
            layout="pddl", defense="checksum", fail_at_ms=500.0,
            arrivals=200, horizon_ms=2000.0,
        ),
        # Seeded latent sector errors, all found and repaired by the
        # scrubber.
        "campaign-lse-scrub": CampaignTrialSpec(
            layout="pddl", trial=1, seed=3, mttf_hours=0.03, faults=1,
            degraded_dwell_ms=50.0, rebuild_rows=26, clients=2,
            lse_per_gb=3000.0, scrub_interval_ms=100.0,
        ),
        # Transient failures retried, and DATUM's write region.
        "crash-datum-transient": CrashTrialSpec(
            layout="datum", clients=2, crash_boundary=30,
            max_pre_samples=60, post_samples=20, transient_io_rate=0.05,
        ),
        # Two crashes with fresh client cohorts, a storm and its ambient
        # restart, an LSE burst and a disk failure.
        "nemesis-crashes-storm-lse": NemesisTrialSpec(
            layout="pddl", trial=11, transient_io_rate=0.01,
            lse_per_gb=3000.0,
        ),
        # Client writes through all four modes, with timelines.
        "lifecycle-write-timelines": LifecycleSpec(
            layout="pddl", clients=2, is_write=True, fault_time_ms=200.0,
            degraded_dwell_ms=50.0, rebuild_rows=26, post_samples=20,
            max_samples=800, timelines=True,
        ),
    }


def compute_digests() -> dict:
    """``{name: {"spec": spec dict, "digest": record digest}}``."""
    from benchmarks.perf.workloads import record_digest
    from repro.runner import execute_spec, spec_to_dict

    return {
        name: {
            "spec": spec_to_dict(spec),
            "digest": record_digest(execute_spec(spec)),
        }
        for name, spec in pinned_specs().items()
    }


def main() -> None:
    digests = compute_digests()
    DIGESTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    with open(DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(digests)} record digests to {DIGESTS_PATH}")


if __name__ == "__main__":
    main()
