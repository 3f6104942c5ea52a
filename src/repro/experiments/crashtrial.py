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

import random
from typing import TYPE_CHECKING, List, Optional

from repro.array.controller import ArrayController
from repro.array.journal import StripeJournal
from repro.array.raidops import ArrayMode
from repro.array.resync import Resynchronizer
from repro.errors import ConfigurationError, SimulationError
from repro.experiments.config import (
    PAPER_SCHEDULER,
    PAPER_SCHEDULER_WINDOW,
    PAPER_STRIPE_UNIT_KB,
    layout_for,
)
from repro.faults.crash import CrashInjector
from repro.faults.oracle import IntegrityOracle
from repro.sim.engine import SimulationEngine
from repro.workload.client import ClosedLoopClient
from repro.workload.generators import UniformGenerator
from repro.workload.spec import AccessSpec

if TYPE_CHECKING:
    from repro.runner.spec import CrashTrialSpec


def run_crash_trial(spec: CrashTrialSpec) -> dict:
    """One crash/recovery arc of a
    :class:`~repro.runner.spec.CrashTrialSpec` (see module docstring).
    Pure function of the spec — every RNG is a named stream, so trials
    plug into the runner's byte-determinism contract."""
    engine = SimulationEngine()
    layout = layout_for(spec.layout, disks=spec.disks, width=spec.width)
    controller = ArrayController(
        engine,
        layout,
        scheduler_name=PAPER_SCHEDULER,
        scheduler_window=PAPER_SCHEDULER_WINDOW,
        stripe_unit_kb=PAPER_STRIPE_UNIT_KB,
    )
    oracle = controller.attach_oracle(IntegrityOracle(layout))
    journal_log = (
        controller.attach_journal(StripeJournal(spec.journal_latency_ms))
        if spec.journal
        else None
    )
    if spec.transient_io_rate > 0:
        controller.enable_transient_errors(spec.transient_io_rate, spec.seed)

    # Confine client writes to the stripe region the resync sweep covers,
    # so the full-sweep baseline really does close every hole.
    periods_swept = max(1, spec.resync_rows // layout.period)
    write_units = periods_swept * layout.data_units_per_period
    if write_units > controller.addressable_data_units:
        write_units = controller.addressable_data_units

    workload = AccessSpec(size_kb=spec.size_kb, is_write=True)
    units = workload.units(PAPER_STRIPE_UNIT_KB)

    pre = {"samples": 0, "total_ms": 0.0}
    post = {"samples": 0, "total_ms": 0.0}
    state = {"resync": None, "resync_ms": None}

    def pre_response(client, access, response_ms) -> bool:
        pre["samples"] += 1
        pre["total_ms"] += response_ms
        return pre["samples"] < spec.max_pre_samples

    for c in range(spec.clients):
        generator = UniformGenerator(
            write_units,
            units,
            random.Random(f"{spec.seed}/client-{c}"),
        )
        ClosedLoopClient(
            c, controller, generator, workload, pre_response,
            stripe_unit_kb=PAPER_STRIPE_UNIT_KB,
        ).start()

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
        for c in range(spec.clients):
            generator = UniformGenerator(
                write_units,
                units,
                random.Random(f"{spec.seed}/post-{c}"),
            )
            ClosedLoopClient(
                spec.clients + c,
                controller,
                generator,
                workload,
                post_response,
                stripe_unit_kb=PAPER_STRIPE_UNIT_KB,
            ).start()

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
    layouts: Optional[List[str]] = None,
    clients: Optional[List[int]] = None,
    disks: int = 13,
    width: Optional[int] = None,
    size_kb: int = 8,
    seed: int = 0,
    crash_boundary: int = 150,
    journal_latency_ms: float = 0.05,
    resync_rows: int = 26,
    pre_samples: int = 200,
    post_samples: int = 50,
):
    """The ``repro crash`` sweep: layouts x client counts x journal
    on/off, with the crash pinned to one phase boundary so the only
    variable between the journal-on and journal-off points is the
    recovery strategy.  The default boundary lands late enough that the
    pre-crash response means are real curves, not single samples —
    ``crash_boundary`` must stay below the total write budget
    (``pre_samples``) or the crash never fires."""
    from repro.runner.spec import CrashTrialSpec

    if layouts is None:
        layouts = ["pddl"]
    if clients is None:
        clients = [2, 4, 8]
    return [
        CrashTrialSpec(
            layout=layout,
            disks=disks,
            width=width,
            clients=client_count,
            size_kb=size_kb,
            seed=seed,
            journal=journal,
            journal_latency_ms=journal_latency_ms,
            crash_boundary=crash_boundary,
            resync_rows=resync_rows,
            max_pre_samples=pre_samples,
            post_samples=post_samples,
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
        return sum(times) / len(times) if times else None

    def mean_pre(rows: List[dict]) -> Optional[float]:
        means = [
            r["pre"]["mean_ms"]
            for r in rows
            if r["pre"]["mean_ms"] is not None
        ]
        return sum(means) / len(means) if means else None

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
