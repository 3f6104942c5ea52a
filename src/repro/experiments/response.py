"""Response-time experiments (Figures 5, 6, 8-14, 18).

One *point* is an :class:`~repro.runner.spec.ExperimentSpec` (layout,
access spec, client count, array mode): closed-loop clients drive the
simulated array until the stopping rule fires (or the spec's sample cap
is reached), and the result is the paper's (x, y) pair — measured
throughput in accesses/second against mean response time in
milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from repro.array.raidops import ArrayMode
from repro.experiments.config import build_array
from repro.sim.instrument import TraceRecorder
from repro.stats.confidence import StoppingRule
from repro.stats.histogram import LatencyHistogram
from repro.stats.seekcount import SeekMix, seek_mix_per_access
from repro.workload.client import start_clients
from repro.workload.spec import AccessSpec

if TYPE_CHECKING:
    from repro.runner.spec import ExperimentSpec


@dataclass(frozen=True)
class ResponsePoint:
    """One measured (workload, response time) point."""

    layout: str
    spec_label: str
    clients: int
    mode: str
    mean_response_ms: float
    throughput_per_s: float
    samples: int
    converged: bool
    seek_mix: SeekMix

    def as_row(self) -> str:
        return (
            f"{self.layout:22s} {self.spec_label:14s} c={self.clients:<3d}"
            f" {self.mode:18s} {self.throughput_per_s:8.2f}/s"
            f" {self.mean_response_ms:9.2f} ms  (n={self.samples})"
        )


@dataclass(frozen=True)
class ResponseCurve:
    """Response time vs offered workload for one layout/spec/mode."""

    layout: str
    spec_label: str
    mode: str
    points: List[ResponsePoint]


@dataclass(frozen=True)
class InstrumentedPoint:
    """A :class:`ResponsePoint` plus the run's raw observables."""

    point: ResponsePoint
    histogram: LatencyHistogram
    instrumentation: dict


def run_response_point_instrumented(
    spec: ExperimentSpec,
    trace: Optional[TraceRecorder] = None,
) -> InstrumentedPoint:
    """Simulate one :class:`~repro.runner.spec.ExperimentSpec` point,
    keeping the run's observables.

    The run stops at the paper's 2%-at-95% precision target or at
    ``spec.max_samples``, whichever comes first.  Every completed
    response (warmup included) lands in the returned latency histogram;
    the instrumentation record carries engine counters, per-disk busy
    time and queue-depth high-water marks (plus full timelines when
    ``spec.timelines`` is set).  ``trace`` records every physical
    operation (the golden-trace observer).
    """
    from repro.runner.spec import MODES

    engine, _, controller = build_array(
        spec.layout,
        spec.disks,
        spec.width,
        coalesce=spec.coalesce,
        record_timelines=spec.timelines,
    )
    if trace is not None:
        controller.attach_trace(trace)
    mode = MODES[spec.mode]
    if mode is not ArrayMode.FAULT_FREE:
        controller.fail_disk(spec.failed_disk)
        if mode is ArrayMode.POST_RECONSTRUCTION:
            controller.finish_reconstruction()

    rule = StoppingRule(
        warmup=spec.warmup,
        min_samples=min(200, spec.max_samples),
        max_samples=spec.max_samples,
        check_interval=25,
    )
    histogram = LatencyHistogram()
    measurement_started = {"t": 0.0, "n0": 0}

    def on_response(client, access, response_ms) -> bool:
        histogram.record(response_ms)
        if rule.samples == 0 and rule.warmup_done:
            measurement_started["t"] = engine.now
            measurement_started["n0"] = controller.completed_accesses
        if rule.offer(response_ms):
            engine.stop()
            return False
        return True

    access_spec = AccessSpec(spec.size_kb, spec.is_write)
    start_clients(
        controller,
        access_spec,
        on_response,
        (f"{spec.seed}/client-{c}" for c in range(spec.clients)),
    )
    engine.run()

    stats = rule.stats
    elapsed_ms = engine.now - measurement_started["t"]
    completed = controller.completed_accesses - measurement_started["n0"]
    throughput = completed / elapsed_ms * 1000.0 if elapsed_ms > 0 else 0.0
    point = ResponsePoint(
        layout=spec.layout,
        spec_label=access_spec.label(),
        clients=spec.clients,
        mode=mode.value,
        mean_response_ms=stats.mean,
        throughput_per_s=throughput,
        samples=stats.count,
        converged=rule.converged,
        seek_mix=seek_mix_per_access(
            controller.disk_stats(), max(1, controller.completed_accesses)
        ),
    )
    return InstrumentedPoint(
        point=point,
        histogram=histogram,
        instrumentation=controller.instrumentation_record(
            include_timelines=spec.timelines
        ),
    )
