"""Controller-crash trials: tear a write workload mid-plan, recover.

One trial is a complete crash/recovery arc on the event loop:

1. Closed-loop clients write into the array (optionally degraded first
   via a scripted disk failure, optionally under transient I/O errors).
2. A :class:`~repro.faults.crash.CrashInjector` fires — at a scripted
   time, a scripted write-plan phase boundary, or a seeded boundary —
   wiping the engine's pending events and tearing in-flight writes.
3. After ``restart_delay_ms`` the controller "reboots":
   a :class:`~repro.array.resync.Resynchronizer` replays the NVRAM
   journal's dirty stripes (or full-sweeps the write region when the
   trial runs journal-less — the measurable baseline).
4. Fresh post-crash clients write again, so the journal's latency cost
   and the recovery's response-time shadow are both visible.

The :class:`~repro.faults.oracle.IntegrityOracle` shadows the whole arc;
a trial record's ``oracle.corruption_events`` must be zero unless the
trial *correctly* ended in data loss.  Client writes are confined to the
stripe region the resync sweep covers (``resync_rows``), so the
full-sweep baseline genuinely closes every hole the crash opened —
making journal-on and journal-off trials end in the same consistent
state by different amounts of work.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.array.journal import StripeJournal
from repro.array.raidops import ArrayMode
from repro.array.resync import Resynchronizer, resync_region_units
from repro.errors import ConfigurationError, SimulationError
from repro.experiments.config import build_array
from repro.experiments.sweep import DISKS, SEED, Flag, Sweep, int_list
from repro.faults.crash import CrashInjector
from repro.faults.oracle import IntegrityOracle
from repro.stats.summary import ordered_mean
from repro.workload.client import start_clients
from repro.workload.spec import AccessSpec

if TYPE_CHECKING:
    from repro.runner.spec import CrashTrialSpec


def run_crash_trial(spec: CrashTrialSpec) -> dict:
    """One crash/recovery arc of a
    :class:`~repro.runner.spec.CrashTrialSpec` (see module docstring).
    Pure function of the spec — every RNG is a named stream, so trials
    plug into the runner's byte-determinism contract."""
    engine, layout, controller = build_array(
        spec.layout, spec.disks, spec.width
    )
    oracle = controller.attach_oracle(IntegrityOracle(layout))
    journal_log = (
        controller.attach_journal(StripeJournal(spec.journal_latency_ms))
        if spec.journal
        else None
    )
    if spec.transient_io_rate > 0:
        controller.enable_transient_errors(spec.transient_io_rate, spec.seed)

    write_units = resync_region_units(controller, spec.resync_rows)
    workload = AccessSpec(size_kb=spec.size_kb, is_write=True)

    pre = {"samples": 0, "total_ms": 0.0}
    post = {"samples": 0, "total_ms": 0.0}
    state = {"resync": None, "resync_ms": None}

    def pre_response(client, access, response_ms) -> bool:
        pre["samples"] += 1
        pre["total_ms"] += response_ms
        return pre["samples"] < spec.max_pre_samples

    start_clients(
        controller,
        workload,
        pre_response,
        (f"{spec.seed}/client-{c}" for c in range(spec.clients)),
        write_units,
    )

    if spec.fail_disk_at_ms is not None:

        def fail() -> None:
            if controller.mode is ArrayMode.FAULT_FREE:
                controller.fail_disk(spec.failed_disk)

        engine.schedule_at(spec.fail_disk_at_ms, fail)

    def post_response(client, access, response_ms) -> bool:
        post["samples"] += 1
        post["total_ms"] += response_ms
        if post["samples"] >= spec.post_samples:
            engine.stop()
            return False
        return True

    def start_post_clients() -> None:
        if spec.post_samples < 1 or controller.mode is ArrayMode.DATA_LOSS:
            return
        start_clients(
            controller,
            workload,
            post_response,
            (f"{spec.seed}/post-{c}" for c in range(spec.clients)),
            write_units,
            first_id=spec.clients,
        )

    def resync_done(duration_ms: float) -> None:
        state["resync_ms"] = duration_ms
        start_post_clients()

    def restart() -> None:
        resync = Resynchronizer(
            controller,
            journal=journal_log,
            suspect=set(crash.torn_stripes),
            rows=spec.resync_rows,
            parallel_stripes=spec.resync_parallel,
            on_finished=resync_done,
        )
        state["resync"] = resync
        resync.start()

    def on_crash(injector: CrashInjector) -> None:
        engine.schedule(spec.restart_delay_ms, restart)

    crash = CrashInjector(
        controller,
        at_time_ms=spec.crash_time_ms,
        at_boundary=spec.crash_boundary,
        seed=spec.crash_seed,
        max_boundary=spec.crash_max_boundary,
        on_crash=on_crash,
    )
    crash.arm()

    engine.run()

    resync = state["resync"]
    if not crash.fired:
        classification = "no_crash"
    elif controller.mode is ArrayMode.DATA_LOSS:
        classification = "data_loss"
    elif resync is not None and resync.complete:
        classification = "recovered"
    else:
        raise SimulationError(
            "crash trial drained without finishing recovery"
            f" (mode {controller.mode.value})"
        )

    verification = oracle.verify(failed_disk=controller.failed_disk)
    record = {
        "layout": spec.layout,
        "disks": layout.n,
        "seed": spec.seed,
        "clients": spec.clients,
        "size_kb": spec.size_kb,
        "journal": spec.journal,
        "journal_latency_ms": (
            spec.journal_latency_ms if spec.journal else None
        ),
        "degraded": spec.fail_disk_at_ms is not None,
        "classification": classification,
        "loss_reason": controller.data_loss_reason,
        "crash": crash.to_dict(),
        "restart_delay_ms": spec.restart_delay_ms,
        "resync": None if resync is None else resync.to_dict(),
        "resync_ms": state["resync_ms"],
        "pre": {
            "samples": pre["samples"],
            "mean_ms": (
                pre["total_ms"] / pre["samples"] if pre["samples"] else None
            ),
        },
        "post": {
            "samples": post["samples"],
            "mean_ms": (
                post["total_ms"] / post["samples"]
                if post["samples"]
                else None
            ),
        },
        "oracle": verification,
        "instrumentation": controller.instrumentation_record(),
    }
    if spec.transient_io_rate > 0:
        record["io_recovery"] = controller.io_stats.to_dict()
    return record


def crash_specs(
    layouts: Sequence[str] = ("pddl",),
    clients: Sequence[int] = (2, 4, 8),
    crash_boundary: int = 150,
    pre_samples: Optional[int] = None,
    **fields,
) -> List[CrashTrialSpec]:
    """The ``repro crash`` sweep: layouts x client counts x journal
    on/off, with the crash pinned to one phase boundary so the only
    variable between the journal-on and journal-off points is the
    recovery strategy.  The default boundary lands late enough that the
    pre-crash response means are real curves, not single samples —
    ``crash_boundary`` must stay below the total write budget
    (``pre_samples``, the spec's ``max_pre_samples``) or the crash never
    fires.  ``fields`` are the spec's own fields, shared by every
    point."""
    from repro.runner.spec import CrashTrialSpec

    if pre_samples is not None:
        fields["max_pre_samples"] = pre_samples
    return [
        CrashTrialSpec(
            layout=layout,
            clients=client_count,
            journal=journal,
            crash_boundary=crash_boundary,
            **fields,
        )
        for layout in layouts
        for client_count in clients
        for journal in (True, False)
    ]


def summarize_crash(records: List[dict]) -> dict:
    """Resync time and journal overhead, journal-on vs full-sweep.

    The acceptance bar: with the same crash placement, journal-on resync
    must be measurably faster than the full-sweep baseline, and no trial
    may report a silent corruption event.
    """
    if not records:
        raise ConfigurationError("no crash records to summarize")
    journal_on = [r for r in records if r["journal"]]
    journal_off = [r for r in records if not r["journal"]]

    def mean_resync(rows: List[dict]) -> Optional[float]:
        times = [r["resync_ms"] for r in rows if r["resync_ms"] is not None]
        return ordered_mean(times)

    def mean_pre(rows: List[dict]) -> Optional[float]:
        means = [
            r["pre"]["mean_ms"]
            for r in rows
            if r["pre"]["mean_ms"] is not None
        ]
        return ordered_mean(means)

    on_ms = mean_resync(journal_on)
    off_ms = mean_resync(journal_off)
    return {
        "trials": len(records),
        "corruption_events": sum(
            r["oracle"]["corruption_events"] for r in records
        ),
        "data_loss_trials": sum(
            1 for r in records if r["classification"] == "data_loss"
        ),
        "journal_resync_ms": on_ms,
        "full_sweep_resync_ms": off_ms,
        "resync_speedup": (
            off_ms / on_ms if on_ms and off_ms and on_ms > 0 else None
        ),
        "journal_pre_mean_ms": mean_pre(journal_on),
        "no_journal_pre_mean_ms": mean_pre(journal_off),
        "stripes_recomputed_journal": sum(
            r["resync"]["recomputed"]
            for r in journal_on
            if r["resync"] is not None
        ),
        "stripes_recomputed_full_sweep": sum(
            r["resync"]["recomputed"]
            for r in journal_off
            if r["resync"] is not None
        ),
    }


class CrashSweep(Sweep):
    """``repro crash``: journaled vs full-sweep resync after a crash."""

    bench = "crash"
    help = "controller-crash trials: journaled vs full-sweep resync"
    quick_help = "small canned sweep (pddl, 2/4 clients, journal on/off)"
    spec = "CrashTrialSpec"
    record = "crash_trial"
    specs = staticmethod(crash_specs)
    summarize = staticmethod(summarize_crash)
    flags = (
        Flag("--layouts", "layouts", nargs="+"),
        Flag("--clients", "clients", type=int_list),
        DISKS,
        Flag("--size", "size_kb", "access KB"),
        Flag(
            "--boundary",
            "crash_boundary",
            "crash at this write-plan phase boundary (array-wide count;"
            " keep it below --pre-samples or the crash never fires)",
        ),
        Flag(
            "--journal-latency",
            "journal_latency_ms",
            "NVRAM journal write latency in ms (journal-on trials)",
        ),
        Flag(
            "--resync-rows",
            "resync_rows",
            "rows the full-sweep resync baseline covers (client writes"
            " are confined to the same region)",
        ),
        Flag("--pre-samples", "pre_samples", default=200),
        Flag("--post-samples", "post_samples"),
        SEED,
    )
    # The boundary must land before the pre-crash budget runs out.
    quick = {
        "clients": [2, 4],
        "pre_samples": 80,
        "post_samples": 20,
        "boundary": 60,
    }
    copied = ("layout", "clients", "journal", "classification", "resync_ms")

    def lines(self, config, summary, trials):
        for t in trials:
            journal = "journal" if t["journal"] else "full-sweep"
            resync = (
                "--" if t["resync_ms"] is None else f"{t['resync_ms']:8.1f} ms"
            )
            yield (
                f"crash: {t['layout']}, {t['clients']} clients,"
                f" {journal:10s} -> {t['classification']:9s}"
                f" torn {len(t['crash']['torn_stripes']):2d}"
                f" resync {resync}"
                f" oracle {t['oracle']['corruption_events']}"
            )
        yield ""
        yield (
            f"resync: journal {summary['journal_resync_ms']:.1f} ms"
            f" vs full sweep {summary['full_sweep_resync_ms']:.1f} ms"
            f" ({summary['resync_speedup']:.1f}x),"
            f" recomputed {summary['stripes_recomputed_journal']}"
            f" vs {summary['stripes_recomputed_full_sweep']} stripes"
        )
        yield (
            f"oracle: {summary['corruption_events']} silent corruption"
            f" event(s), {summary['data_loss_trials']} declared"
            f" data-loss trial(s) in {summary['trials']} trials"
        )

    def project(self, trial: dict) -> dict:
        resync = trial["resync"]
        return dict(
            super().project(trial),
            crashed_at_ms=trial["crash"]["crashed_at_ms"],
            torn_stripes=len(trial["crash"]["torn_stripes"]),
            stripes_swept=None if resync is None else resync["stripes_swept"],
            pre_mean_ms=trial["pre"]["mean_ms"],
            post_mean_ms=trial["post"]["mean_ms"],
            corruption_events=trial["oracle"]["corruption_events"],
        )

    def invariants(self, report: dict, problems: List[str]) -> None:
        summary = report["summary"]
        if summary["corruption_events"] != 0:
            problems.append(
                f"{summary['corruption_events']} silent corruption event(s)"
            )
        if summary["resync_speedup"] <= 1.0:
            problems.append(
                "journaled resync no faster than the full sweep"
                f" (speedup {summary['resync_speedup']})"
            )
        for trial in report["trials"]:
            if trial["corruption_events"] != 0:
                problems.append(
                    f"trial {trial['layout']}/{trial['clients']} clients"
                    f" has {trial['corruption_events']} corruption event(s)"
                )


SWEEP = CrashSweep()
