"""Multi-fault reliability campaigns.

A *campaign* runs many seeded array lifetimes to completion-or-loss and
estimates the per-cycle data-loss probability empirically: each trial
draws a failure sequence (typically two exponential disk lifetimes from
the MTTDL models' assumptions, plus optional latent sector errors),
simulates the full repair arc — degraded dwell, rebuild under optional
client load, second failures classified exactly against the rebuild
frontier — and ends classified **survived** or **lost**.  Never a crash:
data loss is a first-class terminal state of the lifecycle.

The summary cross-checks the Monte-Carlo estimate against the analytic
exposure model (:func:`repro.reliability.mttdl.predict_campaign_loss`):
with per-disk MTTF ``m`` and a measured exposure window ``W`` (dwell +
rebuild), the analytic per-cycle loss probability is
``q = 1 - exp(-(n-1) W / m)``, which must land inside the Wilson
confidence interval of the observed loss fraction.  Dividing the mean
regenerative-cycle length by the loss probability turns either number
into an MTTDL.

Every trial is a pure function of its spec — seeded fault draws, seeded
media errors, a deterministic event loop — so campaign records plug into
the runner's byte-determinism contract (cache replay, resume after a
kill, parallel workers all produce identical bytes).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.array.raidops import ArrayMode
from repro.errors import ConfigurationError
from repro.experiments.config import PAPER_STRIPE_UNIT_KB, build_array
from repro.experiments.iorecovery import aggregate_io_recovery
from repro.experiments.sweep import DISKS, SEED, Flag, Sweep
from repro.faults.lifecycle import ArrayLifecycle
from repro.faults.media import MediaErrorMap
from repro.faults.scrubber import Scrubber, aggregate_scrub
from repro.reliability.mttdl import (
    MS_PER_HOUR,
    earliest_failures,
    predict_campaign_loss,
)
from repro.stats.confidence import wilson_interval
from repro.stats.summary import ordered_mean
from repro.workload.client import start_clients
from repro.workload.spec import AccessSpec

if TYPE_CHECKING:
    from repro.runner.spec import CampaignTrialSpec


def run_campaign_trial(
    spec: CampaignTrialSpec,
    faults: Optional[List[Tuple[float, int]]] = None,
) -> dict:
    """One seeded array lifetime, to completion or data loss.

    ``spec.clients = 0`` runs the repair arc with no foreground load
    (the common campaign configuration — thousands of trials,
    reliability is the measurand); positive ``clients`` adds the
    closed-loop client traffic of the lifecycle experiments, whose
    draws come from the same ``{seed}/client-{c}`` stream family.

    ``spec.oracle`` attaches the integrity shadow
    (:class:`repro.faults.oracle.IntegrityOracle`): every write, rebuild
    step, and on-the-fly reconstruction is checked and the trial record
    gains an ``"oracle"`` verification block whose
    ``corruption_events`` must be zero — silent corruption is never an
    acceptable campaign outcome.  A spec with ``transient_io_rate`` set
    additionally injects per-operation I/O errors recovered by the
    controller's retry/escalation machinery (``"io_recovery"`` block).

    ``faults`` replaces the spec's drawn ``(time_ms, disk)`` failure
    list, so a test can script the failures exactly.
    """
    # Local import: repro.runner imports the executor module, which
    # imports this one.
    from repro.runner.spec import trial_stream_root

    fault_seed = trial_stream_root(spec.seed, spec.trial)
    engine, layout, controller = build_array(
        spec.layout, spec.disks, spec.width
    )
    if faults is None:
        faults = earliest_failures(
            spec.mttf_hours, fault_seed, layout.n, spec.faults
        )
    oracle_model = None
    if spec.oracle:
        from repro.faults.oracle import IntegrityOracle

        oracle_model = controller.attach_oracle(IntegrityOracle(layout))
    if spec.transient_io_rate > 0:
        controller.enable_transient_errors(
            spec.transient_io_rate, fault_seed
        )
    rows = (
        spec.rebuild_rows
        if spec.rebuild_rows is not None
        else controller.periods * layout.period
    )
    media = (
        MediaErrorMap.from_rate(
            layout.n,
            rows,
            PAPER_STRIPE_UNIT_KB,
            spec.lse_per_gb,
            seed=fault_seed,
        )
        if spec.lse_per_gb > 0
        else None
    )

    scrubber: Optional[Scrubber] = None
    if spec.scrub_interval_ms is not None and media is not None:
        scrubber = Scrubber(
            controller,
            media,
            interval_ms=spec.scrub_interval_ms,
            throttle_ms=spec.scrub_throttle_ms,
            rows=rows,
        )

    done = {"classification": None}

    def finish(classification: str) -> None:
        if done["classification"] is not None:
            return
        done["classification"] = classification
        if scrubber is not None:
            scrubber.stop()
        engine.stop()

    lifecycle = ArrayLifecycle(
        controller,
        degraded_dwell_ms=spec.degraded_dwell_ms,
        rebuild_rows=spec.rebuild_rows,
        rebuild_parallel=spec.rebuild_parallel,
        rebuild_throttle_ms=spec.rebuild_throttle_ms,
        media=media,
        on_transition=lambda mode, t: _on_transition(mode),
    )

    def _on_transition(mode: ArrayMode) -> None:
        if mode is ArrayMode.DATA_LOSS:
            finish("lost")
        elif mode is ArrayMode.POST_RECONSTRUCTION:
            if lifecycle.fired_count == len(lifecycle.faults):
                finish("survived")

    lifecycle.arm(faults)
    if scrubber is not None:
        scrubber.start()

    samples = {"count": 0}

    def on_response(client, access, response_ms) -> bool:
        samples["count"] += 1
        return True

    start_clients(
        controller,
        AccessSpec(size_kb=spec.size_kb, is_write=spec.is_write),
        on_response,
        (f"{spec.seed}/client-{c}" for c in range(spec.clients)),
    )
    engine.run()

    if done["classification"] is None:
        # Drained with faults still pending is impossible (they are
        # scheduled events); drained without reaching a terminal regime
        # means the trial never completed a repair arc.
        raise ConfigurationError(
            f"campaign trial ended unclassified in mode"
            f" {controller.mode.value}"
        )

    survived = done["classification"] == "survived"
    first_fault_ms = lifecycle.faults[0][0]
    first_completion_ms = next(
        (
            t
            for mode, t in lifecycle.transitions
            if mode == ArrayMode.POST_RECONSTRUCTION.value
        ),
        None,
    )
    if survived:
        cycle_ms = first_completion_ms
        window_ms = first_completion_ms - first_fault_ms
    else:
        cycle_ms = lifecycle.data_loss_ms
        window_ms = None
    rebuild = lifecycle.rebuild_progress()
    record = {
        "layout": spec.layout,
        "disks": layout.n,
        "trial": spec.trial,
        "seed": spec.seed,
        "mttf_hours": spec.mttf_hours,
        "classification": done["classification"],
        "survived": survived,
        "loss_reason": controller.data_loss_reason,
        "fault_times_ms": [t for t, _ in lifecycle.faults],
        "fault_disks": [d for _, d in lifecycle.faults],
        "first_fault_ms": first_fault_ms,
        "data_loss_ms": lifecycle.data_loss_ms,
        "completed_ms": first_completion_ms if survived else None,
        "cycle_ms": cycle_ms,
        "window_ms": window_ms,
        "lost_units": lifecycle.lost_units,
        "second_faults": list(lifecycle.second_faults),
        "rebuild": {
            key: rebuild[key]
            for key in (
                "duration_ms",
                "steps_completed",
                "total_steps",
                "skipped_steps",
            )
        },
        "media": None if media is None else media.to_dict(),
        "scrub": None if scrubber is None else scrubber.to_dict(),
        "samples": samples["count"],
    }
    # Feature-gated keys only: inactive-default trials keep producing the
    # exact bytes existing caches and baselines hold.
    if oracle_model is not None:
        record["oracle"] = oracle_model.verify(
            failed_disk=controller.failed_disk
        )
    if spec.transient_io_rate > 0:
        record["io_recovery"] = controller.io_stats.to_dict()
    return record


def campaign_specs(trials: int = 200, **fields) -> List[CampaignTrialSpec]:
    """One :class:`~repro.runner.spec.CampaignTrialSpec` per trial.

    ``fields`` are the spec's own fields, shared by every trial.  Each
    trial gets an independent fault-seed stream derived from
    ``(seed, trial)``, so the campaign is embarrassingly parallel and
    individual trials replay bit-identically in isolation.
    """
    # Local import: repro.runner imports the executor module, which
    # imports this one.
    from repro.runner.spec import CampaignTrialSpec

    if trials < 1:
        raise ConfigurationError(f"need >= 1 trial, got {trials}")
    return [
        CampaignTrialSpec(trial=trial, **fields) for trial in range(trials)
    ]


def summarize_campaign(records: List[dict], confidence: float = 0.95) -> dict:
    """Loss probability with Wilson CI, TTDL samples, and the analytic
    cross-check.

    ``records`` are ``run_campaign_trial`` results (every trial of one
    campaign — same layout, same fault parameters).  The analytic
    prediction needs at least one survived trial to measure the
    exposure window from.
    """
    if not records:
        raise ConfigurationError("no campaign records to summarize")
    trials = len(records)
    losses = sum(1 for r in records if not r["survived"])
    p_hat = losses / trials
    ci_low, ci_high = wilson_interval(losses, trials, confidence)
    ttdl_ms = [r["data_loss_ms"] for r in records if not r["survived"]]
    windows_ms = [
        r["window_ms"] for r in records if r["window_ms"] is not None
    ]
    cycles_ms = [r["cycle_ms"] for r in records]
    mean_cycle_ms = ordered_mean(cycles_ms)
    summary = {
        "trials": trials,
        "losses": losses,
        "loss_probability": p_hat,
        "confidence": confidence,
        "ci_low": ci_low,
        "ci_high": ci_high,
        "lost_units_total": sum(r["lost_units"] for r in records),
        "ttdl_ms": {
            "samples": len(ttdl_ms),
            "mean": ordered_mean(ttdl_ms),
            "min": min(ttdl_ms) if ttdl_ms else None,
            "max": max(ttdl_ms) if ttdl_ms else None,
        },
        "mean_cycle_ms": mean_cycle_ms,
        "mean_window_ms": ordered_mean(windows_ms),
        "empirical_mttdl_hours": (
            (mean_cycle_ms / MS_PER_HOUR) / p_hat if losses else None
        ),
        "analytic": None,
    }
    mttf_hours = records[0]["mttf_hours"]
    if windows_ms:
        n = records[0]["disks"]
        window_hours = summary["mean_window_ms"] / MS_PER_HOUR
        prediction = predict_campaign_loss(n, mttf_hours, window_hours)
        q = prediction.loss_probability
        summary["analytic"] = {
            "n": n,
            "mttf_hours": mttf_hours,
            "window_hours": window_hours,
            "loss_probability": q,
            "within_ci": ci_low <= q <= ci_high,
            "mttdl_hours": (
                (mean_cycle_ms / MS_PER_HOUR) / q if q > 0 else None
            ),
        }
    io_recovery = aggregate_io_recovery(records)
    if io_recovery is not None:
        summary["io_recovery"] = io_recovery
    scrub = aggregate_scrub(records)
    if scrub is not None:
        summary["scrub"] = scrub
    return summary


class CampaignSweep(Sweep):
    """``repro campaign``: loss probability and MTTDL, Monte-Carlo."""

    bench = "campaign"
    help = "multi-fault reliability campaign (loss probability, MTTDL)"
    quick_help = (
        "small canned campaign (24 trials, aggressive MTTF/dwell"
        " so double faults actually land mid-rebuild)"
    )
    spec = "CampaignTrialSpec"
    record = "trial"
    specs = staticmethod(campaign_specs)
    summarize = staticmethod(summarize_campaign)
    flags = (
        Flag("--layout", "layout", default="pddl"),
        DISKS,
        Flag("--trials", "trials"),
        Flag("--faults", "faults", "whole-disk failures drawn per trial"),
        Flag(
            "--mttf",
            "mttf_hours",
            "per-disk MTTF in hours (small on purpose: the exposure"
            " window is milliseconds of simulated time)",
            default=0.03,
        ),
        Flag(
            "--dwell",
            "degraded_dwell_ms",
            "degraded dwell before each rebuild starts, ms",
            default=4000.0,
        ),
        Flag(
            "--rebuild-rows",
            "rebuild_rows",
            "limit the rebuild sweep to this many rows",
            default=26,
        ),
        Flag("--rebuild-parallel", "rebuild_parallel"),
        Flag(
            "--rebuild-throttle",
            "rebuild_throttle_ms",
            "idle ms per rebuild slot between steps",
        ),
        Flag(
            "--lse-per-gb",
            "lse_per_gb",
            "expected latent sector errors seeded per GB of capacity",
        ),
        Flag(
            "--scrub-interval",
            "scrub_interval_ms",
            "periodic scrub pass interval in ms (off by default)",
        ),
        Flag(
            "--scrub-throttle",
            "scrub_throttle_ms",
            "idle ms between scrub reads",
        ),
        Flag(
            "--clients", "clients", "foreground client load during each trial"
        ),
        Flag(
            "--transient-io-rate",
            "transient_io_rate",
            "per-operation transient I/O error probability, recovered"
            " by the controller's retry/escalation machinery",
        ),
        Flag(
            "--oracle",
            "oracle",
            "shadow every trial with the integrity oracle and report"
            " silent-corruption counts",
        ),
        SEED,
    )
    quick = {"trials": 24}
    # The committed config block leaves the rebuild/scrub pacing out.
    unreported = (
        "rebuild_parallel", "rebuild_throttle_ms", "scrub_throttle_ms"
    )
    copied = ("trial", "classification", "cycle_ms", "lost_units")

    def config(self, args) -> dict:
        config = super().config(args)
        # New keys appear only when their features are on, so default
        # campaign reports stay byte-identical to pre-oracle builds.
        for key in ("oracle", "transient_io_rate"):
            if not config[key]:
                del config[key]
        return config

    def lines(self, config, summary, trials):
        yield (
            f"campaign: {config['layout']}, {config['disks']} disks,"
            f" {summary['trials']} trials, up to {config['faults']}"
            f" faults each (MTTF {config['mttf_hours']} h,"
            f" dwell {config['degraded_dwell_ms']:.0f} ms)"
        )
        yield (
            f"  lost {summary['losses']}/{summary['trials']}"
            f" -> loss probability {summary['loss_probability']:.3f}"
            f" (95% CI [{summary['ci_low']:.3f},"
            f" {summary['ci_high']:.3f}])"
        )
        analytic = summary["analytic"]
        if analytic is not None:
            verdict = "inside" if analytic["within_ci"] else "OUTSIDE"
            yield (
                f"  analytic prediction {analytic['loss_probability']:.3f}"
                f" ({verdict} the CI; exposure window"
                f" {analytic['window_hours'] * 3600:.1f} s)"
            )
        mttdl = summary["empirical_mttdl_hours"]
        if mttdl is not None:
            yield f"  empirical MTTDL {mttdl:.4f} h" + (
                ""
                if analytic is None
                else f" vs analytic {analytic['mttdl_hours']:.4f} h"
            )
        if config.get("oracle"):
            corruption = sum(t["oracle"]["corruption_events"] for t in trials)
            yield (
                f"  oracle: {corruption} silent corruption event(s)"
                f" across {summary['trials']} shadow-verified trials"
            )

    def project(self, trial: dict) -> dict:
        return dict(
            super().project(trial), second_faults=len(trial["second_faults"])
        )

    def report(self, specs, config, summary, trials) -> dict:
        report = super().report(specs, config, summary, trials)
        if config.get("oracle"):
            report["oracle"] = {
                key: sum(t["oracle"][key] for t in trials)
                for key in ("corruption_events", "torn_writes")
            }
        return report

    def invariants(self, report: dict, problems: List[str]) -> None:
        summary = report["summary"]
        trials = summary["trials"]
        if not 0 <= summary["losses"] <= trials:
            problems.append(
                f"losses {summary['losses']} outside [0, {trials}]"
            )
        p_hat = summary["loss_probability"]
        if not 0.0 <= p_hat <= 1.0:
            problems.append(f"loss probability {p_hat} outside [0, 1]")
        if not summary["ci_low"] <= p_hat <= summary["ci_high"]:
            problems.append(
                f"CI [{summary['ci_low']}, {summary['ci_high']}]"
                f" does not bracket the estimate {p_hat}"
            )
        oracle = report.get("oracle")
        if oracle is not None and oracle["corruption_events"] != 0:
            problems.append(
                f"{oracle['corruption_events']} silent corruption event(s)"
            )


SWEEP = CampaignSweep()
