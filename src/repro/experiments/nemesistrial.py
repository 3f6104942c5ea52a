"""Nemesis trials: composed faults under the integrity oracle.

One trial drives a full array lifetime through a
:class:`~repro.faults.nemesis.NemesisSchedule` — whole-disk failures,
controller crashes, LSE bursts, transient I/O storms, and scrub-off
windows, in any drawn composition — while closed-loop clients write and
the :class:`~repro.faults.oracle.IntegrityOracle` shadows every access.
Outcomes:

``survived``
    Every applied fault was absorbed; the array ends fault-free or
    post-reconstruction with the schedule exhausted.
``data_loss``
    The array lost data *and said so* — a second failure sharing a
    stripe, an unreadable sector ambushing a rebuild, or a write hole
    confirmed at resync.  Legitimate: the failure model allows it.
``silent_corruption``
    The oracle counted at least one corruption event.  This is the hard
    failure the whole harness exists to catch — no schedule, however
    adversarial, may produce it.

Dynamic legality (the YDB nemesis pattern): events are applied through
an :class:`~repro.faults.nemesis.ActiveFaultTracker`; an event that is
illegal in the world earlier faults created — a failure landing during
crash recovery, anything after terminal data loss — is skipped with a
recorded reason, so the trial record shows exactly which faults ran.

Crash recovery composes the PR 4/5 machinery: torn writes feed a
journal-guided (or full-sweep) resync, an interrupted rebuild resumes
from its surviving frontier
(:meth:`~repro.faults.lifecycle.ArrayLifecycle.resume_after_crash`), a
stalled scrubber is replaced by a fresh generation, and a new client
cohort takes over from the stalled one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.array.controller import SCRUB_ID_BASE
from repro.array.journal import StripeJournal
from repro.array.raidops import ArrayMode
from repro.array.resync import Resynchronizer, resync_region_units
from repro.errors import ConfigurationError, SimulationError
from repro.experiments.config import PAPER_STRIPE_UNIT_KB, build_array
from repro.experiments.iorecovery import aggregate_io_recovery
from repro.experiments.sweep import DISKS, SEED, Flag, Sweep, write_report
from repro.faults.corruption import CorruptionModel
from repro.faults.failslow import FailSlowModel
from repro.faults.lifecycle import ArrayLifecycle
from repro.faults.media import MediaErrorMap
from repro.faults.nemesis import ActiveFaultTracker, NemesisSchedule
from repro.faults.oracle import IntegrityOracle
from repro.faults.scenario import FaultScenario
from repro.faults.scrubber import Scrubber, aggregate_scrub
from repro.stats.summary import ordered_mean
from repro.workload.client import start_clients
from repro.workload.spec import AccessSpec

if TYPE_CHECKING:
    from repro.runner.spec import NemesisTrialSpec

#: Scrubber generations (fresh instance after each crash / scrub-off
#: window) each get their own access-id block inside the scrub space.
_SCRUB_GENERATION_STRIDE = 1 << 20


def run_nemesis_trial(
    spec: NemesisTrialSpec, schedule: Optional[NemesisSchedule] = None
) -> dict:
    """One composed-fault lifetime (see module docstring).

    Pure function of its spec: the schedule is drawn from the spec's
    seed, every RNG here is a named stream, and the event loop is
    deterministic — trials plug into the runner's byte-determinism
    contract.  ``schedule`` replaces the drawn schedule, so a test can
    script the faults exactly.
    """
    from repro.runner.spec import trial_stream_root

    if schedule is None:
        schedule = spec.schedule()
    rows = spec.rows
    scrub_interval_ms = spec.scrub_interval_ms
    engine, layout, controller = build_array(
        spec.layout, spec.disks, spec.width
    )
    schedule.validate(layout.n, rows)
    oracle_model = controller.attach_oracle(IntegrityOracle(layout))
    journal_log = (
        controller.attach_journal(StripeJournal(spec.journal_latency_ms))
        if spec.journal
        else None
    )
    if spec.checksums:
        controller.enable_checksums()
    #: Per-trial stream root for fault machinery (storms, ambient LSEs);
    #: mirrors CampaignTrialSpec.fault_seed so trials are independent.
    fault_seed = trial_stream_root(spec.seed, spec.trial)
    if spec.transient_io_rate > 0:
        controller.enable_transient_errors(
            spec.transient_io_rate, f"{fault_seed}/ambient-0"
        )
    media = (
        MediaErrorMap.from_rate(
            layout.n, rows, PAPER_STRIPE_UNIT_KB, spec.lse_per_gb,
            seed=fault_seed,
        )
        if spec.lse_per_gb > 0
        # Always constructed: LSE bursts and the scrubber need a map
        # even when nothing is seeded up front.
        else MediaErrorMap({})
    )

    # The scenario carries the lifecycle's repair knobs; its fault list
    # is never armed — the schedule below injects failures itself.
    first_failure = next(
        (e for e in schedule.events if e.kind == "disk-failure"), None
    )
    scenario = FaultScenario(
        failed_disk=first_failure.disk if first_failure is not None else 0,
        fault_time_ms=(
            first_failure.time_ms if first_failure is not None else 0.0
        ),
        degraded_dwell_ms=spec.degraded_dwell_ms,
        rebuild_rows=rows,
        rebuild_parallel=spec.rebuild_parallel,
    )

    tracker = ActiveFaultTracker()
    done: dict = {"classification": None}
    events_log: List[dict] = []
    state: dict = {
        "cohort": 0,
        "storms": 0,
        "failslow": 0,
        "corruption_bursts": 0,
        "crashes": [],
        "resyncs": [],
        "failure_tokens": [],
    }
    scrub_state: dict = {
        "scrubber": None,
        "generation": 0,
        "off_windows": 0,
        "passes_completed": 0,
        "cells_read": 0,
        "found": 0,
        "repaired": 0,
        "stripes_audited": 0,
        "audit_mismatches": 0,
        "audit_repairs": 0,
        "audit_unrepairable": 0,
    }
    #: Created lazily by the first applied corruption-burst, so trials
    #: whose schedules drew none stay byte-identical to older records.
    corr_state: dict = {"model": None}

    def ensure_corruption() -> CorruptionModel:
        model = corr_state["model"]
        if model is None:
            model = CorruptionModel(
                layout.n, rows, seed=f"{fault_seed}/corruption"
            )
            controller.attach_corruption(model)
            corr_state["model"] = model
        return model
    samples = {"count": 0}
    heal_timers: dict = {}
    heal_seq = {"next": 0}

    # ------------------------------------------------------------------
    # Heal timers: storm ends and scrub-off ends must survive a crash's
    # clear_pending(), so they live in a registry and re-arm on restart.
    # ------------------------------------------------------------------

    def _arm_heal(key: int) -> None:
        at_ms, fn = heal_timers[key]

        def fire() -> None:
            if heal_timers.pop(key, None) is None:
                return
            fn()

        engine.schedule_at(max(at_ms, engine.now), fire)

    def schedule_heal(at_ms: float, fn) -> None:
        key = heal_seq["next"]
        heal_seq["next"] += 1
        heal_timers[key] = (at_ms, fn)
        _arm_heal(key)

    def rearm_heals() -> None:
        for key in sorted(heal_timers):
            _arm_heal(key)

    # ------------------------------------------------------------------
    # Scrubber generations.
    # ------------------------------------------------------------------

    def stop_scrubber() -> None:
        scrubber = scrub_state["scrubber"]
        if scrubber is None:
            return
        for field in ("passes_completed", "cells_read", "found", "repaired"):
            scrub_state[field] += getattr(scrubber, field)
        if scrubber.audit:
            for field in (
                "stripes_audited",
                "audit_mismatches",
                "audit_repairs",
                "audit_unrepairable",
            ):
                scrub_state[field] += getattr(scrubber, field)
        scrubber.stop()
        scrub_state["scrubber"] = None

    def ensure_scrubber() -> None:
        """(Re)start scrubbing unless something forbids it right now."""
        if scrub_interval_ms is None or done["classification"] is not None:
            return
        if controller.mode is ArrayMode.DATA_LOSS:
            return
        if tracker.is_active("scrub-off") or tracker.is_active("crash"):
            return
        stop_scrubber()  # a crash-stalled instance never wakes; replace it
        generation = scrub_state["generation"]
        scrub_state["generation"] = generation + 1
        scrubber = Scrubber(
            controller,
            media,
            interval_ms=scrub_interval_ms,
            throttle_ms=spec.scrub_throttle_ms,
            rows=rows,
            id_base=SCRUB_ID_BASE + generation * _SCRUB_GENERATION_STRIDE,
            audit=spec.checksums,
        )
        scrub_state["scrubber"] = scrubber
        scrubber.start()

    # ------------------------------------------------------------------
    # Trial termination.
    # ------------------------------------------------------------------

    def finish(classification: str) -> None:
        if done["classification"] is not None:
            return
        done["classification"] = classification
        stop_scrubber()
        engine.stop()

    def maybe_finish() -> None:
        if done["classification"] is not None:
            return
        if progress["idx"] < len(schedule.events):
            return
        if tracker.is_active("crash"):
            return
        if controller.mode in (
            ArrayMode.FAULT_FREE,
            ArrayMode.POST_RECONSTRUCTION,
        ):
            finish("survived")

    def on_transition(mode: ArrayMode, now_ms: float) -> None:
        if mode is ArrayMode.DATA_LOSS:
            finish("data_loss")
        elif mode is ArrayMode.POST_RECONSTRUCTION:
            # The rebuild absorbed every applied whole-disk failure.
            for token in state["failure_tokens"]:
                tracker.heal(token, now_ms)
            state["failure_tokens"] = []
            maybe_finish()

    lifecycle = ArrayLifecycle(
        controller, scenario, media=media, on_transition=on_transition
    )

    # ------------------------------------------------------------------
    # Client cohorts (a crash stalls the live cohort; a fresh one takes
    # over once resync completes).
    # ------------------------------------------------------------------

    write_units = resync_region_units(controller, rows)
    access_spec = AccessSpec(size_kb=spec.size_kb, is_write=spec.is_write)

    def on_response(client, access, response_ms) -> bool:
        samples["count"] += 1
        return (
            samples["count"] < spec.max_samples
            and done["classification"] is None
        )

    def start_cohort() -> None:
        if spec.clients < 1 or done["classification"] is not None:
            return
        if samples["count"] >= spec.max_samples:
            return
        if controller.mode is ArrayMode.DATA_LOSS:
            return
        cohort = state["cohort"]
        state["cohort"] = cohort + 1
        first_id = cohort * spec.clients
        start_clients(
            controller,
            access_spec,
            on_response,
            (
                f"{spec.seed}/nemesis-client-{first_id + c}"
                for c in range(spec.clients)
            ),
            write_units,
            first_id=first_id,
        )

    # ------------------------------------------------------------------
    # Event application (dynamic legality lives here).
    # ------------------------------------------------------------------

    def log_applied(event) -> None:
        events_log.append({**event.to_dict(), "outcome": "applied"})

    def log_skipped(event, reason: str) -> None:
        events_log.append(
            {**event.to_dict(), "outcome": "skipped", "reason": reason}
        )

    def apply_disk_failure(event) -> None:
        if controller.mode is ArrayMode.DATA_LOSS:
            log_skipped(event, "data-loss")
            return
        if tracker.is_active("crash"):
            log_skipped(event, "crash-recovery")
            return
        if controller.servers[event.disk].failed:
            log_skipped(event, "disk-already-failed")
            return
        log_applied(event)
        state["failure_tokens"].append(
            tracker.begin(
                "disk-failure", engine.now, detail=f"disk {event.disk}"
            )
        )
        lifecycle.inject_failure(event.disk)

    def apply_lse_burst(event) -> None:
        if controller.mode is ArrayMode.DATA_LOSS:
            log_skipped(event, "data-loss")
            return
        log_applied(event)
        for disk, offset in event.cells:
            media.inject(disk, offset)
        tracker.record(
            "lse-burst", engine.now, detail=f"{len(event.cells)} cell(s)"
        )

    def apply_storm(event) -> None:
        if controller.mode is ArrayMode.DATA_LOSS:
            log_skipped(event, "data-loss")
            return
        if tracker.is_active("transient-storm"):
            log_skipped(event, "storm-active")
            return
        log_applied(event)
        index = state["storms"]
        state["storms"] = index + 1
        controller.enable_transient_errors(
            event.rate, f"{fault_seed}/storm-{index}"
        )
        token = tracker.begin(
            "transient-storm", engine.now, detail=f"rate {event.rate}"
        )

        def end_storm() -> None:
            controller.disable_transient_errors()
            if spec.transient_io_rate > 0:
                controller.enable_transient_errors(
                    spec.transient_io_rate,
                    f"{fault_seed}/ambient-{index + 1}",
                )
            tracker.heal(token, engine.now)

        schedule_heal(event.time_ms + event.duration_ms, end_storm)

    def apply_scrub_off(event) -> None:
        if scrub_interval_ms is None:
            log_skipped(event, "no-scrubber")
            return
        if controller.mode is ArrayMode.DATA_LOSS:
            log_skipped(event, "data-loss")
            return
        if tracker.is_active("scrub-off"):
            log_skipped(event, "window-active")
            return
        log_applied(event)
        scrub_state["off_windows"] += 1
        stop_scrubber()
        token = tracker.begin("scrub-off", engine.now)

        def scrub_on() -> None:
            tracker.heal(token, engine.now)
            ensure_scrubber()

        schedule_heal(event.time_ms + event.duration_ms, scrub_on)

    def apply_crash(event) -> None:
        if controller.mode is ArrayMode.DATA_LOSS:
            log_skipped(event, "data-loss")
            return
        if tracker.is_active("crash"):
            log_skipped(event, "crash-active")
            return
        log_applied(event)
        token = tracker.begin("crash", engine.now)
        # The frontier survives the crash inside the (now idle) sweep
        # object; capture it before recovery replaces the reconstructor.
        recon = lifecycle.reconstructor
        dropped = engine.clear_pending()
        torn = controller.crash()
        state["crashes"].append(
            {
                "time_ms": engine.now,
                "torn_accesses": torn["accesses"],
                "torn_stripes": len(torn["stripes"]),
                "dropped_events": dropped,
            }
        )
        # clear_pending() killed the heal timers along with everything
        # else; NVRAM-like bookkeeping re-arms on the restart path.
        rearm_heals()

        def resync_done(duration_ms: float) -> None:
            resync = state["resync"]
            state["resyncs"].append(
                {"crashed_at_ms": event.time_ms, **resync.to_dict()}
            )
            tracker.heal(token, engine.now)
            lifecycle.resume_after_crash()
            ensure_scrubber()
            start_cohort()
            maybe_finish()

        def restart() -> None:
            rebuilt = None
            if (
                controller.mode is ArrayMode.RECONSTRUCTION
                and recon is not None
            ):
                rebuilt = recon.is_rebuilt
            resync = Resynchronizer(
                controller,
                journal=journal_log,
                suspect=set(torn["stripes"]),
                rows=rows,
                on_finished=resync_done,
                rebuilt=rebuilt,
            )
            state["resync"] = resync
            resync.start()
            if resync.aborted:
                # The write hole ate data: resync declared the loss
                # synchronously and the recovery never completes.
                state["resyncs"].append(
                    {"crashed_at_ms": event.time_ms, **resync.to_dict()}
                )
                finish("data_loss")

        engine.schedule(spec.restart_delay_ms, restart)

    def apply_failslow(event) -> None:
        if controller.mode is ArrayMode.DATA_LOSS:
            log_skipped(event, "data-loss")
            return
        if controller.servers[event.disk].failed:
            log_skipped(event, "disk-failed")
            return
        drive = controller.servers[event.disk].drive
        if drive.fail_slow is not None:
            log_skipped(event, "failslow-active")
            return
        log_applied(event)
        state["failslow"] += 1
        # Constant profile from now; the heal timer detaches the model
        # (and survives a crash's clear_pending via the registry).
        drive.fail_slow = FailSlowModel(
            event.multiplier, onset_ms=engine.now
        )
        token = tracker.begin(
            "failslow",
            engine.now,
            detail=f"disk {event.disk} x{event.multiplier:g}",
        )

        def heal_failslow() -> None:
            drive.fail_slow = None
            tracker.heal(token, engine.now)

        schedule_heal(event.time_ms + event.duration_ms, heal_failslow)

    def apply_corruption_burst(event) -> None:
        if controller.mode is ArrayMode.DATA_LOSS:
            log_skipped(event, "data-loss")
            return
        if controller.servers[event.disk].failed:
            log_skipped(event, "disk-failed")
            return
        model = corr_state["model"]
        if model is not None and model.burst_active(event.disk):
            log_skipped(event, "burst-active")
            return
        log_applied(event)
        state["corruption_bursts"] += 1
        model = ensure_corruption()
        model.begin_burst(event.disk, event.rate, event.rate * 0.5)
        token = tracker.begin(
            "corruption-burst",
            engine.now,
            detail=f"disk {event.disk} rate {event.rate:g}",
        )

        def heal_burst() -> None:
            # The drive returns to honesty; cells it already corrupted
            # stay corrupt until a clean write or audit repair clears
            # them.
            model.end_burst(event.disk)
            tracker.heal(token, engine.now)

        schedule_heal(event.time_ms + event.duration_ms, heal_burst)

    _APPLIERS = {
        "disk-failure": apply_disk_failure,
        "crash": apply_crash,
        "lse-burst": apply_lse_burst,
        "transient-storm": apply_storm,
        "scrub-off": apply_scrub_off,
        "failslow": apply_failslow,
        "corruption-burst": apply_corruption_burst,
    }

    # ------------------------------------------------------------------
    # The event pump: exactly one schedule event is armed at a time, so
    # a crash's clear_pending() never eats a future fault.
    # ------------------------------------------------------------------

    progress = {"idx": 0}

    def fire_event() -> None:
        event = schedule.events[progress["idx"]]
        progress["idx"] += 1
        _APPLIERS[event.kind](event)
        schedule_next_event()
        maybe_finish()

    def schedule_next_event() -> None:
        if progress["idx"] >= len(schedule.events):
            return
        event = schedule.events[progress["idx"]]
        engine.schedule_at(max(event.time_ms, engine.now), fire_event)

    schedule_next_event()
    ensure_scrubber()
    start_cohort()

    engine.run()

    if done["classification"] is None:
        raise SimulationError(
            "nemesis trial drained unclassified in mode"
            f" {controller.mode.value}"
        )

    verification = oracle_model.verify(failed_disk=controller.failed_disk)
    classification = done["classification"]
    if verification["corruption_events"] > 0:
        classification = "silent_corruption"

    stop_scrubber()  # fold any final generation into the accumulators
    rebuild = lifecycle.rebuild_progress()
    record = {
        "layout": spec.layout,
        "disks": layout.n,
        "trial": spec.trial,
        "seed": spec.seed,
        "schedule": schedule.to_dict(),
        "schedule_hash": schedule.content_hash(),
        "classification": classification,
        "loss_reason": controller.data_loss_reason,
        "events": events_log,
        "faults": tracker.to_dict(),
        "transitions": [list(t) for t in lifecycle.transitions],
        "second_faults": list(lifecycle.second_faults),
        "lost_units": lifecycle.lost_units,
        "write_hole_stripes": sum(
            len(r["data_lost_stripes"]) for r in state["resyncs"]
        ),
        "crashes": state["crashes"],
        "resyncs": state["resyncs"],
        "completed_rebuild": lifecycle.complete,
        "rebuild": {
            key: rebuild[key]
            for key in ("duration_ms", "steps_completed", "total_steps")
        },
        "media": media.to_dict(),
        "scrub": (
            None
            if scrub_interval_ms is None
            else {
                "generations": scrub_state["generation"],
                "off_windows": scrub_state["off_windows"],
                "passes_completed": scrub_state["passes_completed"],
                "cells_read": scrub_state["cells_read"],
                "found": scrub_state["found"],
                "repaired": scrub_state["repaired"],
            }
        ),
        "samples": samples["count"],
        "oracle": verification,
        "instrumentation": controller.instrumentation_record(),
    }
    if spec.checksums and record["scrub"] is not None:
        record["scrub"].update(
            {
                field: scrub_state[field]
                for field in (
                    "stripes_audited",
                    "audit_mismatches",
                    "audit_repairs",
                    "audit_unrepairable",
                )
            }
        )
    if spec.transient_io_rate > 0 or state["storms"] > 0:
        record["io_recovery"] = controller.io_stats.to_dict()
    if state["failslow"] > 0:
        record["failslow_windows"] = state["failslow"]
    if state["corruption_bursts"] > 0:
        record["corruption_bursts"] = state["corruption_bursts"]
        model = corr_state["model"]
        if model is not None:
            record["corruption"] = model.report()
    return record


def nemesis_specs(
    trials: int = 200, start: int = 0, **fields
) -> List[NemesisTrialSpec]:
    """One :class:`~repro.runner.spec.NemesisTrialSpec` per trial.

    ``fields`` are the spec's own fields, shared by every trial.
    ``start`` offsets the trial indices — ``repro nemesis --trial N``
    replays exactly trial N of a campaign (same derived schedule seed),
    which is how a failing seed from CI reproduces locally.
    """
    # Local import: repro.runner imports the executor module, which
    # imports this one.
    from repro.runner.spec import NemesisTrialSpec

    if trials < 1:
        raise ConfigurationError(f"need >= 1 trial, got {trials}")
    return [
        NemesisTrialSpec(trial=trial, **fields)
        for trial in range(start, start + trials)
    ]


def summarize_nemesis(records: List[dict]) -> dict:
    """Outcome counts, fault coverage, and the corruption invariant.

    ``silent_corruption`` must be zero; ``failing_trials`` names the
    trial indices to replay when it is not.
    """
    if not records:
        raise ConfigurationError("no nemesis records to summarize")
    outcomes = {"survived": 0, "data_loss": 0, "silent_corruption": 0}
    applied: dict = {}
    skipped: dict = {}
    skip_reasons: dict = {}
    resync_times: List[float] = []
    for record in records:
        outcomes[record["classification"]] += 1
        for event in record["events"]:
            kind = event["kind"]
            if event["outcome"] == "applied":
                applied[kind] = applied.get(kind, 0) + 1
            else:
                skipped[kind] = skipped.get(kind, 0) + 1
                reason = event["reason"]
                skip_reasons[reason] = skip_reasons.get(reason, 0) + 1
        for resync in record["resyncs"]:
            if resync["duration_ms"] is not None:
                resync_times.append(resync["duration_ms"])
    summary = {
        "trials": len(records),
        "survived": outcomes["survived"],
        "data_loss": outcomes["data_loss"],
        "silent_corruption": outcomes["silent_corruption"],
        "corruption_events": sum(
            r["oracle"]["corruption_events"] for r in records
        ),
        "failing_trials": sorted(
            r["trial"]
            for r in records
            if r["classification"] == "silent_corruption"
        ),
        "events_applied": {k: applied[k] for k in sorted(applied)},
        "events_skipped": {k: skipped[k] for k in sorted(skipped)},
        "skip_reasons": {k: skip_reasons[k] for k in sorted(skip_reasons)},
        "crashes": sum(len(r["crashes"]) for r in records),
        "write_hole_stripes": sum(
            r["write_hole_stripes"] for r in records
        ),
        "mean_resync_ms": ordered_mean(resync_times),
        "completed_rebuilds": sum(
            1 for r in records if r["completed_rebuild"]
        ),
        "lost_units_total": sum(r["lost_units"] for r in records),
        "samples_total": sum(r["samples"] for r in records),
    }
    io_recovery = aggregate_io_recovery(records)
    if io_recovery is not None:
        summary["io_recovery"] = io_recovery
    scrub = aggregate_scrub(records)
    if scrub is not None:
        summary["scrub"] = scrub
    corruption = aggregate_corruption(records)
    if corruption is not None:
        summary["corruption"] = corruption
    return summary


def aggregate_corruption(records: List[dict]) -> Optional[dict]:
    """Sum per-kind corruption ledgers; None when no trial carried one."""
    reports = [r["corruption"] for r in records if r.get("corruption")]
    if not reports:
        return None
    kinds = sorted({k for rep in reports for k in rep["injected"]})
    summary: dict = {
        bucket: {
            kind: sum(rep[bucket].get(kind, 0) for rep in reports)
            for kind in kinds
        }
        for bucket in ("injected", "detected", "silent", "repaired")
    }
    summary["cells_corrupted"] = sum(
        rep["cells_corrupted"] for rep in reports
    )
    summary["remaining"] = sum(rep["remaining"] for rep in reports)
    summary["silent_total"] = sum(rep["silent_total"] for rep in reports)
    summary["detected_total"] = sum(
        rep["detected_total"] for rep in reports
    )
    return summary


class NemesisSweep(Sweep):
    """``repro nemesis``: composed-fault schedules under the oracle."""

    bench = "nemesis"
    help = "composed-fault campaigns under the integrity oracle"
    quick_help = "small canned campaign (24 drawn schedules)"
    spec = "NemesisTrialSpec"
    record = "nemesis_trial"
    specs = staticmethod(nemesis_specs)
    summarize = staticmethod(summarize_nemesis)
    flags = (
        Flag("--layout", "layout", default="pddl"),
        DISKS,
        Flag("--trials", "trials"),
        Flag(
            "--trial",
            None,
            "replay exactly this trial index (the failing-seed repro"
            " path; overrides --trials/--quick)",
            default=None,
            type=int,
        ),
        SEED,
        Flag(
            "--clients",
            "clients",
            "closed-loop writers per cohort (a crash stalls the live"
            " cohort; recovery starts a fresh one)",
        ),
        Flag(
            "--rows",
            "rows",
            "rows covered by rebuild/resync/scrub sweeps (client"
            " writes are confined to the same region)",
        ),
        Flag(
            "--no-journal",
            None,
            "recover crashes with the full-sweep resync baseline"
            " instead of the NVRAM dirty-stripe journal",
            default=False,
        ),
        Flag(
            "--scrub-interval",
            "scrub_interval_ms",
            "periodic scrub pass interval in ms (scrub-off windows"
            " pause it; pass 0 to disable scrubbing entirely)",
        ),
        Flag(
            "--samples",
            "max_samples",
            "total client responses per trial across all cohorts",
        ),
        Flag(
            "--transient-io-rate",
            "transient_io_rate",
            "ambient per-operation transient error probability"
            " outside storm windows",
        ),
        Flag(
            "--lse-per-gb",
            "lse_per_gb",
            "latent sector errors seeded up front per GB (bursts in"
            " the schedule add more mid-run)",
        ),
    )
    tail = (
        Flag(
            "--failures-out",
            None,
            "repro-command file written when any trial silently"
            " corrupts ('' to skip)",
            default="nemesis_failures.txt",
        ),
    )
    quick = {"trials": 24}
    copied = (
        "trial", "classification", "schedule_hash", "lost_units", "samples"
    )

    def config(self, args) -> dict:
        config = dict(super().config(args), start=0)
        if args.trial is not None:
            # Replay exactly one schedule (the failing-seed repro path).
            config["trials"], config["start"] = 1, args.trial
        config["journal"] = not args.no_journal
        if not config["scrub_interval_ms"] > 0:
            config["scrub_interval_ms"] = None
        return config

    def lines(self, config, summary, trials):
        yield (
            f"nemesis: {config['layout']}, {config['disks']} disks,"
            f" {summary['trials']} composed-fault trial(s), oracle on"
        )
        yield (
            f"  survived {summary['survived']},"
            f" data-loss {summary['data_loss']},"
            f" SILENT CORRUPTION {summary['silent_corruption']}"
        )
        yield "  faults applied: " + _counts(summary["events_applied"])
        if summary["events_skipped"]:
            yield "  skipped (legality): " + _counts(summary["skip_reasons"])
        if summary["mean_resync_ms"] is not None:
            yield (
                f"  {summary['crashes']} crash(es), mean resync"
                f" {summary['mean_resync_ms']:.1f} ms,"
                f" {summary['write_hole_stripes']} write-hole stripe(s)"
            )

    def finish(self, args, config, summary) -> int:
        failing = summary["failing_trials"]
        if not failing:
            return 0
        # One self-contained repro command per failing schedule, for
        # the CI artifact and for running locally: the run's layout,
        # disks and seed, every option it set off its default, and
        # --trial in place of --trials.
        options = []
        for flag in self.flags:
            value = getattr(args, flag.dest)
            if flag.dest in ("trials", "trial"):
                continue
            if flag.dest in ("layout", "disks", "seed") or (
                value != self.default(flag)
            ):
                options.append(
                    flag.flag if value is True else f"{flag.flag} {value}"
                )
        commands = [
            f"python -m repro nemesis {' '.join(options)}"
            f" --trial {t} --no-cache"
            for t in failing
        ]
        for command in commands:
            print(f"reproduce: {command}")
        if args.failures_out:
            write_report(
                args.failures_out,
                {"failing_trials": failing, "commands": commands},
            )
        return 1

    def project(self, trial: dict) -> dict:
        return dict(
            super().project(trial),
            events=[
                {"kind": e["kind"], "outcome": e["outcome"]}
                for e in trial["events"]
            ],
            crashes=len(trial["crashes"]),
            corruption_events=trial["oracle"]["corruption_events"],
        )

    def invariants(self, report: dict, problems: List[str]) -> None:
        summary = report["summary"]
        if summary["silent_corruption"] != 0:
            problems.append(
                f"{summary['silent_corruption']} SILENT_CORRUPTION"
                f" trial(s): {summary['failing_trials']}"
            )
        if summary["corruption_events"] != 0:
            problems.append(
                f"{summary['corruption_events']} oracle corruption event(s)"
            )
        counted = (
            summary["survived"]
            + summary["data_loss"]
            + summary["silent_corruption"]
        )
        if counted != summary["trials"]:
            problems.append(
                f"outcomes sum to {counted}, not {summary['trials']}"
            )


def _counts(counts: dict) -> str:
    return ", ".join(f"{k} x{v}" for k, v in counts.items())


SWEEP = NemesisSweep()
