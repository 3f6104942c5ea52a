"""Reconstruction-under-load lifecycle experiments (Figures 8-14, 18).

Where the response-time experiments measure each array mode as a separate
steady-state run, a *lifecycle* run is one continuous simulation: the
array starts fault-free under closed-loop client load, a failure
(scripted, or the earliest of seeded disk lifetimes) lands mid-run,
the background sweep rebuilds lost units — into spare space for
layouts with distributed sparing, onto a replacement spindle
otherwise — while clients keep hammering the array
(:attr:`~repro.array.raidops.ArrayMode.RECONSTRUCTION` — rebuilt units
served from their rebuilt copies, the rest reconstructed on the fly), and
the run finishes in the post-reconstruction regime.  The result carries per-mode latency
histograms (responses binned by the mode in force when the access was
*issued*), the mode-transition timeline, and the rebuild-progress curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from repro.array.raidops import ArrayMode
from repro.experiments.config import build_array
from repro.faults.lifecycle import ArrayLifecycle
from repro.reliability.mttdl import earliest_failures
from repro.sim.instrument import ProgressTimeline
from repro.stats.bymode import LatencyByMode
from repro.workload.client import start_clients
from repro.workload.spec import AccessSpec

if TYPE_CHECKING:
    from repro.runner.spec import LifecycleSpec


@dataclass(frozen=True)
class LifecycleRun:
    """Everything one lifecycle simulation observed."""

    layout: str
    spec_label: str
    clients: int
    fault_time_ms: float
    fault_disk: int
    transitions: List[tuple]
    complete: bool
    rebuild_duration_ms: Optional[float]
    rebuild_steps: int
    rebuild_total_steps: int
    rebuild_fraction: float
    samples: int
    by_mode: LatencyByMode
    progress: ProgressTimeline
    instrumentation: dict
    #: Integrity verification block (None unless the run was started
    #: with ``spec.oracle``); ``corruption_events`` must be zero.
    oracle: Optional[dict] = None


def run_lifecycle(spec: LifecycleSpec) -> LifecycleRun:
    """Run one full-lifecycle :class:`~repro.runner.spec.LifecycleSpec`.

    The run stops once ``spec.post_samples`` accesses issued in
    post-reconstruction mode have completed (the post-rebuild steady
    state is established), or after ``spec.max_samples`` responses
    total — whichever comes first.  Both bounds and every RNG derive
    from the spec, so identical specs produce identical results (the
    runner's byte-determinism contract extends to lifecycle specs).
    """
    engine, layout, controller = build_array(
        spec.layout, spec.disks, spec.width, record_timelines=spec.timelines
    )
    oracle_model = None
    if spec.oracle:
        from repro.faults.oracle import IntegrityOracle

        oracle_model = controller.attach_oracle(IntegrityOracle(layout))

    progress = ProgressTimeline()
    lifecycle = ArrayLifecycle(
        controller,
        degraded_dwell_ms=spec.degraded_dwell_ms,
        rebuild_rows=spec.rebuild_rows,
        rebuild_parallel=spec.rebuild_parallel,
        rebuild_throttle_ms=spec.rebuild_throttle_ms,
        on_rebuild_step=lambda recon: progress.record(
            engine.now, recon.fraction_complete
        ),
    )
    if spec.mttf_hours is None:
        lifecycle.arm([(spec.fault_time_ms, spec.failed_disk)])
    else:
        lifecycle.arm(
            earliest_failures(spec.mttf_hours, spec.fault_seed, layout.n, 1)
        )

    by_mode = LatencyByMode()
    totals = {"samples": 0, "post": 0}

    def on_response(client, access, response_ms) -> bool:
        issued_ms = engine.now - response_ms
        mode = lifecycle.mode_at(issued_ms)
        by_mode.record(mode, response_ms)
        totals["samples"] += 1
        if mode == ArrayMode.POST_RECONSTRUCTION.value:
            totals["post"] += 1
        if (
            totals["samples"] >= spec.max_samples
            or totals["post"] >= spec.post_samples
        ):
            engine.stop()
            return False
        return True

    access_spec = AccessSpec(spec.size_kb, spec.is_write)
    start_clients(
        controller,
        access_spec,
        on_response,
        # Same stream family as the response experiments: adding the
        # lifecycle machinery does not perturb client draws.
        (f"{spec.seed}/client-{c}" for c in range(spec.clients)),
    )
    engine.run()

    rebuild = lifecycle.rebuild_progress()
    fault_time_ms, fault_disk = lifecycle.faults[0]
    return LifecycleRun(
        layout=spec.layout,
        spec_label=access_spec.label(),
        clients=spec.clients,
        fault_time_ms=fault_time_ms,
        fault_disk=fault_disk,
        transitions=list(lifecycle.transitions),
        complete=lifecycle.complete,
        rebuild_duration_ms=rebuild["duration_ms"],
        rebuild_steps=rebuild["steps_completed"],
        rebuild_total_steps=rebuild["total_steps"],
        rebuild_fraction=rebuild["fraction"],
        samples=totals["samples"],
        by_mode=by_mode,
        progress=progress,
        instrumentation=controller.instrumentation_record(
            include_timelines=spec.timelines
        ),
        oracle=(
            None
            if oracle_model is None
            else oracle_model.verify(failed_disk=controller.failed_disk)
        ),
    )
