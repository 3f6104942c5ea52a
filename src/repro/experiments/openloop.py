"""Open-loop traffic trials: arrivals x admission x lifecycle.

One trial offers a fixed number of open-loop arrivals (Poisson, MMPP, or
diurnal trace) to an array through a bounded admission queue, in one of
three phases:

- ``ff``       — fault-free array;
- ``degraded`` — a disk failed before traffic starts and the rebuild has
  not begun (the detection/dwell window, stretched past the run);
- ``rebuild``  — the rebuild sweep is running for the whole measurement
  window (full-disk sweep, throttled, armed before traffic starts).

The measurand is the *tail*: p99/p999/exact-max latency from offer to
completion (admission wait included), SLO time-in-violation, shed
counts, and the overload detector's verdict.  The flagship sweep holds
the offered load fixed across phases, so "the knee" — the offered load
where a layout's mid-rebuild tail diverges from its fault-free tail —
falls straight out of the committed BENCH_traffic.json.

Every draw comes from named seeded streams (``{seed}/arrivals``,
``{seed}/openloop-loc``), so trials are pure functions of their specs
and plug into the runner's byte-determinism contract.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, List, Optional

from repro.array.controller import LogicalAccess
from repro.experiments.config import PAPER_LAYOUT_NAMES, build_array
from repro.experiments.iorecovery import aggregate_io_recovery
from repro.experiments.sweep import (
    DISKS,
    SEED,
    Flag,
    Sweep,
    check_admission,
    check_tail_order,
)
from repro.faults.lifecycle import ArrayLifecycle
from repro.sim.instrument import DepthTimeline, ProgressTimeline
from repro.traffic.admission import OpenLoopRun, OverloadDetector
from repro.traffic.arrivals import (
    ArrivalProcess,
    MMPPArrivals,
    PoissonArrivals,
    TraceArrivals,
)
from repro.traffic.sla import SlaTracker, SloPolicy
from repro.workload.spec import AccessSpec

if TYPE_CHECKING:
    from repro.runner.spec import OpenLoopSpec

#: Trial phases (see module docstring).
PHASES = ("ff", "degraded", "rebuild")

#: Supported arrival models.
ARRIVALS = ("poisson", "mmpp", "trace")

#: Non-fault-free phases (and fail-slow trials) fail the disk this
#: early, before any traffic.
FAULT_AT_MS = 1.0

#: Gap between the last phase transition and the first arrival draw, so
#: every offered access sees the phase the trial name promises.
SETTLE_MS = 9.0


def slo_tracker(spec) -> SlaTracker:
    """The SLA tracker of an open-loop or fail-slow spec: its p99 and
    p999 ceilings over ``window_ms`` windows."""
    return SlaTracker(
        SloPolicy(p99_ms=spec.slo_p99_ms, p999_ms=spec.slo_p999_ms),
        window_ms=spec.window_ms,
    )


def _build_arrivals(spec: OpenLoopSpec, rng: random.Random) -> ArrivalProcess:
    if spec.arrival == "poisson":
        return PoissonArrivals(spec.rate_per_s, rng)
    if spec.arrival == "mmpp":
        return MMPPArrivals.bursty(
            spec.rate_per_s,
            spec.burst_ratio,
            spec.burst_fraction,
            spec.burst_dwell_ms,
            rng,
        )
    return TraceArrivals.diurnal(spec.rate_per_s, spec.trace_period_ms, rng)


def run_openloop_trial(spec: OpenLoopSpec) -> dict:
    """One trial of an :class:`~repro.runner.spec.OpenLoopSpec`; returns
    a JSON-able record.

    The run ends when every offered arrival is resolved (completed or
    shed) or at ``spec.horizon_ms``, whichever comes first; a horizon
    stop marks the record ``truncated``.
    """
    engine, _, controller = build_array(
        spec.layout, spec.disks, spec.width, record_timelines=spec.timelines
    )

    # Fault machinery: the degraded phase stretches the dwell past the
    # horizon so the rebuild never starts; the rebuild phase sweeps the
    # whole disk, throttled, so reconstruction is in flight for the
    # entire measurement window.
    lifecycle: Optional[ArrayLifecycle] = None
    progress = ProgressTimeline()
    traffic_start_ms = 0.0
    if spec.phase != "ff":
        dwell = (
            spec.horizon_ms + SETTLE_MS
            if spec.phase == "degraded"
            else spec.degraded_dwell_ms
        )
        lifecycle = ArrayLifecycle(
            controller,
            degraded_dwell_ms=dwell,
            rebuild_parallel=spec.rebuild_parallel,
            rebuild_throttle_ms=spec.rebuild_throttle_ms,
            on_rebuild_step=lambda recon: progress.record(
                engine.now, recon.fraction_complete
            ),
        )
        lifecycle.arm([(FAULT_AT_MS, spec.failed_disk)])
        traffic_start_ms = FAULT_AT_MS + SETTLE_MS
        if spec.phase == "rebuild":
            traffic_start_ms += spec.degraded_dwell_ms

    tracker = slo_tracker(spec)
    detector = OverloadDetector(
        window_ms=spec.window_ms, windows=spec.overload_windows
    )
    timeline = DepthTimeline()
    mode_counts: dict = {}

    def on_response(
        access: LogicalAccess, total_ms: float, wait_ms: float
    ) -> None:
        now = engine.now
        tracker.record(now, total_ms)
        mode = (
            lifecycle.mode_at(now - total_ms)
            if lifecycle is not None
            else "fault-free"
        )
        mode_counts[mode] = mode_counts.get(mode, 0) + 1

    traffic = OpenLoopRun(
        controller,
        _build_arrivals(spec, random.Random(f"{spec.seed}/arrivals")),
        spec.arrivals,
        AccessSpec(spec.size_kb, spec.is_write),
        f"{spec.seed}/openloop-loc",
        on_response,
        depth=spec.queue_depth,
        service_slots=spec.service_slots,
        detector=detector,
        timeline=timeline,
    )
    traffic.run(traffic_start_ms, spec.horizon_ms)

    truncated = traffic.resolved < spec.arrivals
    overload = detector.report()
    slo = tracker.report()
    stats = traffic.queue.stats()
    # "Detected overload": the detector latched sustained queue growth,
    # or arrivals were shed outright (the queue hit its bound).
    overloaded = bool(overload["overloaded"] or stats["shed"] > 0)
    record = {
        "layout": spec.layout,
        "phase": spec.phase,
        "arrival": spec.arrival,
        "rate_per_s": spec.rate_per_s,
        "offered": stats["offered"],
        "completed": stats["completed"],
        "shed": stats["shed"],
        "truncated": truncated,
        "overloaded": overloaded,
        "slo_violated": bool(
            slo["p99_violated"] or slo["p999_violated"]
        ),
        "tail": slo["tail"],
        "slo": slo,
        "queue": stats,
        "overload": overload,
        "modes": dict(sorted(mode_counts.items())),
        "histogram": tracker.histogram.to_dict(),
        "instrumentation": controller.instrumentation_record(
            include_timelines=spec.timelines
        ),
    }
    if lifecycle is not None:
        rebuild = lifecycle.rebuild_progress()
        record["rebuild"] = {
            "transitions": [list(t) for t in lifecycle.transitions],
            "fraction": rebuild["fraction"],
            "steps": rebuild["steps_completed"],
            "finished": lifecycle.complete,
        }
    if spec.timelines:
        record["timelines"] = {
            "queue_depth": list(timeline.points),
            "rebuild_progress": list(progress.points),
        }
    record["queue"]["waiting_high_water"] = timeline.high_water
    return record


def openloop_specs(
    layouts: List[str],
    rates_per_s: List[float],
    phases: List[str] = ("ff", "rebuild"),
    **fields,
) -> list:
    """The offered-load sweep as runner specs (layout x rate x phase);
    ``fields`` are the spec's own fields, shared by every point."""
    # Local import: repro.runner imports the experiment drivers' specs.
    from repro.runner.spec import OpenLoopSpec

    return [
        OpenLoopSpec(layout=layout, rate_per_s=rate, phase=phase, **fields)
        for layout in layouts
        for rate in rates_per_s
        for phase in phases
    ]


def summarize_openloop(records: List[dict]) -> dict:
    """Reduce trial records to the knee/divergence summary.

    The *knee* of a (layout, phase) curve is the lowest offered load
    where the trial detected overload; *divergence* entries are
    (layout, rate) points where the mid-rebuild array is overloaded
    while the fault-free array at the same offered load is not — the
    headline comparison of the open-loop experiment.
    """
    by_config = {
        (r["layout"], r["phase"], r["rate_per_s"]): r for r in records
    }
    layouts = sorted({r["layout"] for r in records})
    phases = sorted({r["phase"] for r in records})
    rates = sorted({r["rate_per_s"] for r in records})
    knees: dict = {}
    for layout in layouts:
        knees[layout] = {}
        for phase in phases:
            knee = None
            for rate in rates:
                record = by_config.get((layout, phase, rate))
                if record is not None and record["overloaded"]:
                    knee = rate
                    break
            knees[layout][phase] = knee
    divergence = []
    for layout in layouts:
        for rate in rates:
            ff = by_config.get((layout, "ff", rate))
            rebuild = by_config.get((layout, "rebuild", rate))
            if ff is None or rebuild is None:
                continue
            if rebuild["overloaded"] and not ff["overloaded"]:
                divergence.append(
                    {
                        "layout": layout,
                        "rate_per_s": rate,
                        "rebuild_p999_ms": rebuild["tail"]["p999_ms"],
                        "ff_p999_ms": ff["tail"]["p999_ms"],
                        "rebuild_shed": rebuild["shed"],
                        "rebuild_slo_violated": rebuild["slo_violated"],
                    }
                )
    summary = {
        "trials": len(records),
        "overloaded_trials": sum(1 for r in records if r["overloaded"]),
        "slo_violated_trials": sum(
            1 for r in records if r["slo_violated"]
        ),
        "shed_total": sum(r["shed"] for r in records),
        "truncated_trials": sum(1 for r in records if r["truncated"]),
        "knees": knees,
        "divergence": divergence,
    }
    io_recovery = aggregate_io_recovery(records)
    if io_recovery is not None:
        summary["io_recovery"] = io_recovery
    return summary


class TrafficSweep(Sweep):
    """``repro traffic``: offered-load sweeps with SLO accounting."""

    bench = "traffic"
    help = "open-loop offered-load sweeps with SLO/overload accounting"
    quick_help = "small canned sweep (raid5+pddl at two offered loads)"
    spec = "OpenLoopSpec"
    record = "openloop"
    specs = staticmethod(openloop_specs)
    summarize = staticmethod(summarize_openloop)
    flags = (
        Flag(
            "--layouts", "layouts", nargs="+", default=list(PAPER_LAYOUT_NAMES)
        ),
        Flag(
            "--rates",
            "rates_per_s",
            "offered loads in arrivals/second",
            default=[250.0, 350.0, 450.0, 550.0],
            type=float,
            nargs="+",
        ),
        Flag(
            "--phases",
            "phases",
            "array states the traffic is offered against",
            nargs="+",
            choices=PHASES,
        ),
        Flag(
            "--arrival",
            "arrival",
            "arrival process (Poisson / bursty MMPP / diurnal trace)",
            choices=ARRIVALS,
        ),
        Flag("--arrivals", "arrivals", "arrivals offered per trial"),
        SEED,
        DISKS,
        Flag(
            "--queue-depth",
            "queue_depth",
            "admission FIFO bound; arrivals beyond it are shed",
        ),
        Flag(
            "--service-slots",
            "service_slots",
            "accesses in flight in the array at once",
        ),
        Flag("--slo-p99", "slo_p99_ms", "declared p99 latency ceiling, ms"),
        Flag("--slo-p999", "slo_p999_ms", "declared p999 latency ceiling, ms"),
        Flag(
            "--horizon",
            "horizon_ms",
            "per-trial simulation-time safety stop, ms",
        ),
    )
    quick = {
        "layouts": ["raid5", "pddl"], "rates": [350.0, 550.0], "arrivals": 150
    }
    # Tails and counters; the full records live in the result cache.
    copied = (
        "layout",
        "phase",
        "rate_per_s",
        "offered",
        "completed",
        "shed",
        "truncated",
        "overloaded",
        "slo_violated",
        "tail",
        "overload",
        "modes",
    )

    def lines(self, config, summary, trials):
        yield (
            f"traffic: {config['arrival']} arrivals,"
            f" {len(config['layouts'])} layout(s) x"
            f" {len(config['rates_per_s'])} offered load(s) x"
            f" {len(config['phases'])} phase(s),"
            f" {config['arrivals']} arrivals/trial"
        )
        yield (
            f"  overloaded {summary['overloaded_trials']}"
            f"/{summary['trials']} trial(s), SLO-violating"
            f" {summary['slo_violated_trials']},"
            f" shed {summary['shed_total']} arrival(s)"
        )
        for layout, knees in sorted(summary["knees"].items()):
            yield f"  knee[{layout}]  " + ", ".join(
                f"{phase}: {'-' if rate is None else f'{rate:g}/s'}"
                for phase, rate in sorted(knees.items())
            )
        for entry in summary["divergence"]:
            yield (
                f"  diverges: {entry['layout']} @"
                f" {entry['rate_per_s']:g}/s — rebuild p999"
                f" {entry['rebuild_p999_ms']:.1f} ms"
                f" (ff {entry['ff_p999_ms']:.1f} ms,"
                f" {entry['rebuild_shed']} shed)"
            )

    def project(self, trial: dict) -> dict:
        slo, queue = trial["slo"], trial["queue"]
        return dict(
            super().project(trial),
            time_in_violation_ms=slo["time_in_violation_ms"],
            violation_windows=slo["violation_windows"],
            queue_high_water=queue["queue_high_water"],
            mean_wait_ms=queue["mean_wait_ms"],
        )

    def invariants(self, report: dict, problems: List[str]) -> None:
        summary, trials = report["summary"], report["trials"]
        overloaded = sum(1 for t in trials if t["overloaded"])
        if overloaded != summary["overloaded_trials"]:
            problems.append(
                f"summary says {summary['overloaded_trials']}"
                " overloaded trial(s) but the trials show"
                f" {overloaded}"
            )
        for t in trials:
            label = f"{t['layout']}/{t['phase']}@{t['rate_per_s']}"
            check_admission(label, t, problems)
            check_tail_order(label, t["tail"], problems)


SWEEP = TrafficSweep()
