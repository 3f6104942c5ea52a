"""Fail-slow trials: tail-tolerance defenses under a gray failure.

One trial offers open-loop Poisson arrivals to an array that is
rebuilding one failed disk while *another* disk fail-slows (a constant
service-time multiplier from time zero — the gray failure the fault
model in :mod:`repro.faults.failslow` scripts).  The ``defense`` axis
switches the two tail-tolerance mechanisms on and off independently:

- ``none``      — no defense: unthrottled rebuild, no hedging;
- ``hedge``     — hedged degraded-reads (deferral-timeout reconstruction
  races, quarantine via the slow-disk detector);
- ``adaptive``  — SLO-feedback AIMD rebuild throttling;
- ``both``      — hedging and adaptive rebuild together.

The measurands are the foreground latency tail (p99/p999/max), SLO
time-in-violation, the rebuild duration, and the hedge/quarantine
counters — the committed ``BENCH_failslow.json`` compares all four
defenses for PDDL and RAID-5.  The layout story: mid-rebuild, *every*
RAID-5 stripe contains the failed disk, so a hedge has no redundancy to
read from; PDDL's declustered width leaves most stripes fully redundant
and hedging keeps working.

Every draw comes from named seeded streams, so trials are pure
functions of their specs and plug into the runner's byte-determinism
contract.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, List

from repro.array.reconstructor import AdaptiveThrottle
from repro.experiments.config import build_array
from repro.experiments.iorecovery import aggregate_io_recovery
from repro.experiments.openloop import FAULT_AT_MS, SETTLE_MS, slo_tracker
from repro.experiments.sweep import (
    DISKS,
    SEED,
    Flag,
    Sweep,
    check_admission,
    check_tail_order,
)
from repro.faults.failslow import FailSlowModel
from repro.faults.scrubber import aggregate_scrub
from repro.faults.lifecycle import ArrayLifecycle
from repro.faults.scenario import FaultScenario
from repro.traffic.admission import OpenLoopRun
from repro.traffic.arrivals import PoissonArrivals
from repro.workload.spec import AccessSpec

if TYPE_CHECKING:
    from repro.runner.spec import FailSlowTrialSpec

#: Defense configurations (see module docstring).
DEFENSES = ("none", "hedge", "adaptive", "both")


def run_failslow_trial(spec: FailSlowTrialSpec) -> dict:
    """One trial of a :class:`~repro.runner.spec.FailSlowTrialSpec`;
    returns a JSON-able record.

    The trial always runs the mid-rebuild phase: ``failed_disk`` dies at
    1ms, the rebuild starts after the dwell, and ``slow_disk`` serves
    every operation ``slow_multiplier`` x slower from the start.  The
    run ends when every arrival is resolved *and* the rebuild finished,
    or at ``horizon_ms`` (marking the record ``truncated``).
    """
    engine, _, controller = build_array(spec.layout, spec.disks, spec.width)

    hedging = spec.defense in ("hedge", "both")
    adapting = spec.defense in ("adaptive", "both")
    if hedging:
        controller.enable_hedging(spec.hedge_deferral_ms)

    tracker = slo_tracker(spec)
    adaptive = (
        AdaptiveThrottle(tracker, spec.adaptive_max_ms) if adapting else None
    )

    # The gray failure: active from time zero, constant multiplier.
    controller.servers[spec.slow_disk].drive.fail_slow = FailSlowModel(
        spec.slow_multiplier, onset_ms=0.0
    )

    scenario = FaultScenario(
        failed_disk=spec.failed_disk,
        fault_time_ms=FAULT_AT_MS,
        degraded_dwell_ms=spec.degraded_dwell_ms,
        rebuild_rows=spec.rebuild_rows,
        rebuild_parallel=spec.rebuild_parallel,
        # The undefended baseline pays this static idle gap per rebuild
        # step; the adaptive defense replaces it with the AIMD decision.
        rebuild_throttle_ms=spec.rebuild_throttle_ms,
    )
    lifecycle = ArrayLifecycle(
        controller,
        scenario,
        # The rebuild finishing is a stop condition too (transitions are
        # recorded before the callback fires, so ``complete`` is fresh).
        on_transition=lambda mode, now: traffic.check_stop(),
        adaptive_throttle=adaptive,
    )
    lifecycle.arm()

    traffic = OpenLoopRun(
        controller,
        PoissonArrivals(
            spec.rate_per_s, random.Random(f"{spec.seed}/arrivals")
        ),
        spec.arrivals,
        AccessSpec(spec.size_kb, False),
        f"{spec.seed}/failslow-loc",
        lambda access, total_ms, wait_ms: tracker.record(
            engine.now, total_ms
        ),
        done=lambda: lifecycle.complete or lifecycle.data_loss,
        depth=spec.queue_depth,
        service_slots=spec.service_slots,
    )
    traffic.run(
        FAULT_AT_MS + SETTLE_MS + spec.degraded_dwell_ms, spec.horizon_ms
    )

    rebuild = lifecycle.rebuild_progress()
    slo = tracker.report()
    stats = traffic.queue.stats()
    truncated = traffic.resolved < spec.arrivals or not lifecycle.complete
    record = {
        "layout": spec.layout,
        "defense": spec.defense,
        "rate_per_s": spec.rate_per_s,
        "slow_disk": spec.slow_disk,
        "slow_multiplier": spec.slow_multiplier,
        "offered": stats["offered"],
        "completed": stats["completed"],
        "shed": stats["shed"],
        "truncated": truncated,
        "slo_violated": bool(
            slo["p99_violated"] or slo["p999_violated"]
        ),
        "tail": slo["tail"],
        "slo": slo,
        "queue": stats,
        "failslow": controller.servers[
            spec.slow_disk
        ].drive.fail_slow.report(),
        "rebuild": {
            "transitions": [list(t) for t in lifecycle.transitions],
            "finished": lifecycle.complete,
            "steps": rebuild["steps_completed"],
            "duration_ms": rebuild["duration_ms"],
        },
        "instrumentation": controller.instrumentation_record(),
    }
    if hedging:
        io = controller.io_stats
        record["hedging"] = {
            "launched": io.hedges_launched,
            "won": io.hedges_won,
            "lost": io.hedges_lost,
            "aborts": io.hedge_aborts,
            "detector": controller.slow_disk_detector.report(),
        }
    if adaptive is not None:
        record["adaptive"] = adaptive.report()
    return record


def failslow_specs(
    layouts: List[str], defenses: List[str] = DEFENSES, **fields
) -> list:
    """The defense-comparison sweep as runner specs (layout x defense);
    ``fields`` are the spec's own fields, shared by every point."""
    # Local import: repro.runner imports the experiment drivers' specs.
    from repro.runner.spec import FailSlowTrialSpec

    return [
        FailSlowTrialSpec(layout=layout, defense=defense, **fields)
        for layout in layouts
        for defense in defenses
    ]


def summarize_failslow(records: List[dict]) -> dict:
    """Reduce trial records to the defense-comparison summary.

    Per layout: the tail cut hedging buys over no-defense (the
    acceptance headline), the hedge win rate, and the rebuild-time
    inflation the adaptive throttle pays to keep the foreground p99
    within its SLO.
    """
    by_config = {(r["layout"], r["defense"]): r for r in records}
    layouts = sorted({r["layout"] for r in records})
    hedging: dict = {}
    adaptive: dict = {}
    for layout in layouts:
        none = by_config.get((layout, "none"))
        hedge = by_config.get((layout, "hedge"))
        adapt = by_config.get((layout, "adaptive"))
        both = by_config.get((layout, "both"))
        if none is not None and hedge is not None:
            launched = hedge["hedging"]["launched"]
            won = hedge["hedging"]["won"]
            hedging[layout] = {
                "none_p999_ms": none["tail"]["p999_ms"],
                "hedge_p999_ms": hedge["tail"]["p999_ms"],
                # Hedging composed with the adaptive rebuild: the AIMD
                # backoff shortens the slow-disk queue the hedges race,
                # so the combined tail cut is deeper than either alone.
                "both_p999_ms": (
                    both["tail"]["p999_ms"] if both is not None else None
                ),
                "none_max_ms": none["tail"]["max_ms"],
                "hedge_max_ms": hedge["tail"]["max_ms"],
                "launched": launched,
                "won": won,
                "win_rate": won / launched if launched else None,
                "quarantines": hedge["hedging"]["detector"][
                    "quarantines"
                ],
            }
        if none is not None and adapt is not None:
            base_ms = none["rebuild"]["duration_ms"]
            adapt_ms = adapt["rebuild"]["duration_ms"]
            adaptive[layout] = {
                "none_rebuild_ms": base_ms,
                "adaptive_rebuild_ms": adapt_ms,
                "rebuild_inflation": (
                    adapt_ms / base_ms
                    if base_ms and adapt_ms is not None
                    else None
                ),
                "none_p99_violated": none["slo"]["p99_violated"],
                "adaptive_p99_violated": adapt["slo"]["p99_violated"],
                "none_violation_ms": none["slo"]["time_in_violation_ms"],
                "adaptive_violation_ms": adapt["slo"][
                    "time_in_violation_ms"
                ],
                "backoffs": adapt["adaptive"]["backoffs"],
                "sprints": adapt["adaptive"]["sprints"],
            }
    summary = {
        "trials": len(records),
        "truncated_trials": sum(1 for r in records if r["truncated"]),
        "slo_violated_trials": sum(
            1 for r in records if r["slo_violated"]
        ),
        "hedging": hedging,
        "adaptive": adaptive,
    }
    io_recovery = aggregate_io_recovery(records)
    if io_recovery is not None:
        summary["io_recovery"] = io_recovery
    scrub = aggregate_scrub(records)
    if scrub is not None:
        summary["scrub"] = scrub
    return summary


class FailSlowSweep(Sweep):
    """``repro failslow``: tail defenses under a fail-slow disk."""

    bench = "failslow"
    help = "tail-tolerance defenses under a fail-slow disk mid-rebuild"
    quick_help = "small canned comparison (raid5+pddl, short rebuild)"
    spec = "FailSlowTrialSpec"
    record = "failslow"
    specs = staticmethod(failslow_specs)
    summarize = staticmethod(summarize_failslow)
    flags = (
        Flag(
            "--layouts",
            "layouts",
            "layouts to compare (the bench contrasts raid5 vs pddl)",
            default=["raid5", "pddl"],
            nargs="+",
        ),
        Flag(
            "--defenses",
            "defenses",
            "tail-tolerance configurations to run",
            nargs="+",
            choices=DEFENSES,
        ),
        Flag("--rate", "rate_per_s", "offered load in arrivals/second"),
        Flag("--arrivals", "arrivals", "arrivals offered per trial"),
        SEED,
        DISKS,
        Flag(
            "--slow-disk",
            "slow_disk",
            "the gray-failure disk (must differ from the failed disk 0)",
        ),
        Flag(
            "--slow-multiplier",
            "slow_multiplier",
            "service-time multiplier of the fail-slow disk",
        ),
        Flag(
            "--rebuild-rows",
            "rebuild_rows",
            "stripe rows swept by the rebuild",
        ),
        Flag(
            "--hedge-deferral",
            "hedge_deferral_ms",
            "ms a degraded read waits before hedging",
        ),
        Flag(
            "--adaptive-max",
            "adaptive_max_ms",
            "AIMD rebuild-throttle ceiling, ms",
        ),
        Flag("--slo-p99", "slo_p99_ms", "declared p99 latency ceiling, ms"),
        Flag("--slo-p999", "slo_p999_ms", "declared p999 latency ceiling, ms"),
        Flag(
            "--horizon",
            "horizon_ms",
            "per-trial simulation-time safety stop, ms",
        ),
    )
    quick = {"arrivals": 150, "rebuild_rows": 60}
    # Tails and defense counters, no raw instrumentation.
    copied = (
        "layout",
        "defense",
        "rate_per_s",
        "offered",
        "completed",
        "shed",
        "truncated",
        "slo_violated",
        "tail",
        "failslow",
    )

    def lines(self, config, summary, trials):
        yield (
            f"failslow: {len(config['layouts'])} layout(s) x"
            f" {len(config['defenses'])} defense(s),"
            f" {config['arrivals']} arrivals/trial"
            f" @ {config['rate_per_s']:g}/s,"
            f" {config['slow_multiplier']:g}x fail-slow disk"
        )
        yield (
            f"  SLO-violating {summary['slo_violated_trials']}"
            f"/{summary['trials']} trial(s),"
            f" truncated {summary['truncated_trials']}"
        )
        for layout, h in sorted(summary["hedging"].items()):
            win = "-" if h["win_rate"] is None else f"{h['win_rate']:.0%}"
            both = (
                ""
                if h["both_p999_ms"] is None
                else f" (both: {h['both_p999_ms']:.1f})"
            )
            yield (
                f"  hedge[{layout}]  p999 {h['none_p999_ms']:.1f} ->"
                f" {h['hedge_p999_ms']:.1f} ms{both},"
                f" {h['won']}/{h['launched']} won ({win}),"
                f" {h['quarantines']} quarantine(s)"
            )
        for layout, a in sorted(summary["adaptive"].items()):
            inflation = (
                "-"
                if a["rebuild_inflation"] is None
                else f"{a['rebuild_inflation']:.2f}x"
            )
            yield (
                f"  aimd[{layout}]   p99 violated"
                f" {a['none_p99_violated']} ->"
                f" {a['adaptive_p99_violated']}, rebuild {inflation},"
                f" {a['backoffs']} backoff(s) / {a['sprints']} sprint(s)"
            )

    def project(self, trial: dict) -> dict:
        rebuild = trial["rebuild"]
        return dict(
            super().project(trial),
            time_in_violation_ms=trial["slo"]["time_in_violation_ms"],
            violation_windows=trial["slo"]["violation_windows"],
            rebuild={
                key: rebuild[key]
                for key in ("finished", "steps", "duration_ms")
            },
            hedging=trial.get("hedging"),
            adaptive=trial.get("adaptive"),
        )

    def invariants(self, report: dict, problems: List[str]) -> None:
        summary = report["summary"]
        for trial in report["trials"]:
            label = f"{trial['layout']}/{trial['defense']}"
            check_admission(label, trial, problems)
            check_tail_order(label, trial["tail"], problems)
            hedging = trial.get("hedging")
            if trial["defense"] in ("hedge", "both"):
                if hedging is None:
                    problems.append(f"{label}: hedging defense lacks counters")
                elif hedging["won"] + hedging["lost"] > hedging["launched"]:
                    problems.append(
                        f"{label}: hedge wins {hedging['won']} + losses"
                        f" {hedging['lost']} exceed launches"
                        f" {hedging['launched']}"
                    )
            elif hedging is not None:
                problems.append(
                    f"{label}: hedge counters on a non-hedging defense"
                )
        for layout, entry in summary.get("hedging", {}).items():
            launched, won = entry["launched"], entry["won"]
            if won > launched:
                problems.append(
                    f"summary.hedging.{layout}: {won} wins"
                    f" from {launched} launches"
                )
            rate = entry["win_rate"]
            if launched and (rate is None or not 0.0 <= rate <= 1.0):
                problems.append(
                    f"summary.hedging.{layout}: win rate"
                    f" {rate} outside [0, 1]"
                )


SWEEP = FailSlowSweep()
