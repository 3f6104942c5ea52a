"""Response-time experiments (Figures 5, 6, 8-14, 18).

One *point* is (layout, access spec, client count, array mode): closed-loop
clients drive the simulated array until the stopping rule fires (or the
bounded default sample count is reached), and the result is the paper's
(x, y) pair — measured throughput in accesses/second against mean response
time in milliseconds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.array.controller import ArrayController
from repro.array.raidops import ArrayMode
from repro.errors import ConfigurationError
from repro.experiments.config import (
    PAPER_SCHEDULER,
    PAPER_SCHEDULER_WINDOW,
    PAPER_STRIPE_UNIT_KB,
    layout_for,
)
from repro.sim.engine import SimulationEngine
from repro.sim.instrument import TraceRecorder
from repro.stats.confidence import StoppingRule
from repro.stats.histogram import LatencyHistogram
from repro.stats.seekcount import SeekMix, seek_mix_per_access
from repro.workload.client import ClosedLoopClient
from repro.workload.generators import UniformGenerator
from repro.workload.spec import AccessSpec


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
    layout_name: str,
    spec: AccessSpec,
    clients: int,
    mode: ArrayMode = ArrayMode.FAULT_FREE,
    failed_disk: int = 0,
    seed: int = 0,
    max_samples: int = 600,
    rel_precision: float = 0.02,
    warmup: int = 50,
    use_stopping_rule: bool = True,
    coalesce: bool = True,
    disks: Optional[int] = None,
    width: Optional[int] = None,
    record_timelines: bool = False,
    trace: Optional[TraceRecorder] = None,
) -> InstrumentedPoint:
    """Simulate one experiment point, keeping the run's observables.

    ``max_samples`` bounds the run; set it high and keep
    ``use_stopping_rule`` to reproduce the paper's 2%-at-95% run-length
    policy exactly.  Every completed response (warmup included) lands in
    the returned latency histogram; the instrumentation record carries
    engine counters, per-disk busy time and queue-depth high-water marks
    (plus full timelines when ``record_timelines`` is set).
    """
    if clients < 1:
        raise ConfigurationError(f"need >= 1 client, got {clients}")
    engine = SimulationEngine()
    layout = layout_for(layout_name, disks=disks, width=width)
    controller = ArrayController(
        engine,
        layout,
        scheduler_name=PAPER_SCHEDULER,
        scheduler_window=PAPER_SCHEDULER_WINDOW,
        stripe_unit_kb=PAPER_STRIPE_UNIT_KB,
        coalesce=coalesce,
        record_timelines=record_timelines,
    )
    if trace is not None:
        controller.attach_trace(trace)
    if mode is not ArrayMode.FAULT_FREE:
        controller.fail_disk(failed_disk)
        if mode is ArrayMode.POST_RECONSTRUCTION:
            controller.finish_reconstruction()

    rule = StoppingRule(
        rel_precision=rel_precision,
        warmup=warmup,
        min_samples=min(200, max_samples),
        max_samples=max_samples,
        check_interval=25,
    )
    histogram = LatencyHistogram()
    measurement_started = {"t": 0.0, "n0": 0}

    def on_response(client, access, response_ms) -> bool:
        histogram.record(response_ms)
        if rule.samples == 0 and rule.warmup_done:
            measurement_started["t"] = engine.now
            measurement_started["n0"] = controller.completed_accesses
        if use_stopping_rule or rule.samples < max_samples:
            if rule.offer(response_ms):
                engine.stop()
                return False
        return True

    units = spec.units(PAPER_STRIPE_UNIT_KB)
    for c in range(clients):
        generator = UniformGenerator(
            controller.addressable_data_units,
            units,
            random.Random(f"{seed}/client-{c}"),
        )
        ClosedLoopClient(
            c, controller, generator, spec, on_response,
            stripe_unit_kb=PAPER_STRIPE_UNIT_KB,
        ).start()
    engine.run()

    stats = rule.stats
    elapsed_ms = engine.now - measurement_started["t"]
    completed = controller.completed_accesses - measurement_started["n0"]
    throughput = completed / elapsed_ms * 1000.0 if elapsed_ms > 0 else 0.0
    point = ResponsePoint(
        layout=layout_name,
        spec_label=spec.label(),
        clients=clients,
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
            include_timelines=record_timelines
        ),
    )


def run_response_point(
    layout_name: str,
    spec: AccessSpec,
    clients: int,
    mode: ArrayMode = ArrayMode.FAULT_FREE,
    **kwargs,
) -> ResponsePoint:
    """Simulate one experiment point (see the instrumented variant)."""
    return run_response_point_instrumented(
        layout_name, spec, clients, mode=mode, **kwargs
    ).point


def run_response_curve(
    layout_name: str,
    spec: AccessSpec,
    client_counts: Sequence[int],
    mode: ArrayMode = ArrayMode.FAULT_FREE,
    **kwargs,
) -> ResponseCurve:
    """One figure curve: sweep the closed-loop population."""
    points = [
        run_response_point(layout_name, spec, clients, mode=mode, **kwargs)
        for clients in client_counts
    ]
    return ResponseCurve(
        layout=layout_name,
        spec_label=spec.label(),
        mode=mode.value,
        points=points,
    )


def run_figure(
    layout_names: Sequence[str],
    spec: AccessSpec,
    client_counts: Sequence[int],
    mode: ArrayMode = ArrayMode.FAULT_FREE,
    **kwargs,
) -> Dict[str, ResponseCurve]:
    """All of one figure panel's curves, keyed by layout name."""
    return {
        name: run_response_curve(
            name, spec, client_counts, mode=mode, **kwargs
        )
        for name in layout_names
    }
