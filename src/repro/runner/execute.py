"""Spec execution: one spec in, one JSON-able result record out.

The record is a plain dict of JSON scalars/containers, so it is
picklable across worker processes, cacheable on disk, and — crucially —
*byte-identical* whether computed serially, in a worker, or read back
from the cache (floats round-trip exactly through ``json``).  Use
:func:`canonical_json` to compare record lists bit-for-bit.
"""

from __future__ import annotations

import json
from typing import List

from repro.errors import ConfigurationError
from repro.runner.spec import (
    MODES,
    CampaignTrialSpec,
    CorruptionTrialSpec,
    CrashTrialSpec,
    ExperimentSpec,
    FailSlowTrialSpec,
    LifecycleSpec,
    NemesisTrialSpec,
    OpenLoopSpec,
    Spec,
    Table1Spec,
    spec_hash,
    spec_to_dict,
)

#: Bump together with result-record layout changes.
RESULT_SCHEMA_VERSION = 1


def _execute_response(spec: ExperimentSpec) -> dict:
    from repro.experiments.response import run_response_point_instrumented
    from repro.workload.spec import AccessSpec

    run = run_response_point_instrumented(
        spec.layout,
        AccessSpec(spec.size_kb, spec.is_write),
        spec.clients,
        mode=MODES[spec.mode],
        failed_disk=spec.failed_disk,
        seed=spec.seed,
        max_samples=spec.max_samples,
        warmup=spec.warmup,
        use_stopping_rule=spec.use_stopping_rule,
        coalesce=spec.coalesce,
        disks=spec.disks,
        width=spec.width,
        record_timelines=spec.timelines,
    )
    point = run.point
    mix = point.seek_mix
    return {
        "point": {
            "layout": point.layout,
            "spec_label": point.spec_label,
            "clients": point.clients,
            "mode": point.mode,
            "mean_response_ms": point.mean_response_ms,
            "throughput_per_s": point.throughput_per_s,
            "samples": point.samples,
            "converged": point.converged,
            "seek_mix": {
                "non_local": mix.non_local,
                "cylinder_switch": mix.cylinder_switch,
                "track_switch": mix.track_switch,
                "no_switch": mix.no_switch,
            },
        },
        "histogram": run.histogram.to_dict(),
        "instrumentation": run.instrumentation,
    }


def _execute_table1(spec: Table1Spec) -> dict:
    from repro.experiments.table1 import solve_cell

    cell = solve_cell(
        spec.k,
        spec.g,
        seed=spec.seed,
        restarts=spec.restarts,
        max_steps=spec.max_steps,
        p_max=spec.p_max,
    )
    return {
        "cell": {
            "k": cell.k,
            "g": cell.g,
            "n": cell.n,
            "group_size": cell.group_size,
            "method": cell.method,
            "paper_value": cell.paper_value,
        }
    }


def _execute_lifecycle(spec: LifecycleSpec) -> dict:
    from repro.experiments.lifecycle import run_lifecycle
    from repro.workload.spec import AccessSpec

    run = run_lifecycle(
        spec.layout,
        AccessSpec(spec.size_kb, spec.is_write),
        spec.clients,
        spec.scenario(),
        seed=spec.seed,
        max_samples=spec.max_samples,
        post_samples=spec.post_samples,
        disks=spec.disks,
        width=spec.width,
        record_timelines=spec.timelines,
        oracle=spec.oracle,
    )
    record = {
        "lifecycle": {
            "layout": run.layout,
            "spec_label": run.spec_label,
            "clients": run.clients,
            "fault_time_ms": run.fault_time_ms,
            "fault_disk": run.fault_disk,
            "transitions": [list(t) for t in run.transitions],
            "complete": run.complete,
            "rebuild_duration_ms": run.rebuild_duration_ms,
            "rebuild_steps": run.rebuild_steps,
            "rebuild_total_steps": run.rebuild_total_steps,
            "rebuild_fraction": run.rebuild_fraction,
            "samples": run.samples,
            "mode_means_ms": {
                mode: run.by_mode.mean(mode) for mode in run.by_mode.modes()
            },
        },
        "histograms": run.by_mode.to_dict(),
        "progress": list(run.progress.points),
        "instrumentation": run.instrumentation,
    }
    if run.oracle is not None:
        record["lifecycle"]["oracle"] = run.oracle
    return record


def _execute_campaign_trial(spec: CampaignTrialSpec) -> dict:
    from repro.experiments.campaign import run_campaign_trial

    return {
        "trial": run_campaign_trial(
            spec.layout,
            spec.scenario(),
            trial=spec.trial,
            seed=spec.seed,
            clients=spec.clients,
            size_kb=spec.size_kb,
            is_write=spec.is_write,
            disks=spec.disks,
            width=spec.width,
            oracle=spec.oracle,
        )
    }


def _execute_crash_trial(spec: CrashTrialSpec) -> dict:
    from repro.experiments.crashtrial import run_crash_trial

    return {"crash_trial": run_crash_trial(spec)}


def _execute_nemesis_trial(spec: NemesisTrialSpec) -> dict:
    from repro.experiments.nemesistrial import run_nemesis_trial

    return {
        "nemesis_trial": run_nemesis_trial(
            spec.layout,
            spec.schedule(),
            trial=spec.trial,
            seed=spec.seed,
            clients=spec.clients,
            size_kb=spec.size_kb,
            is_write=spec.is_write,
            disks=spec.disks,
            width=spec.width,
            rows=spec.rows,
            degraded_dwell_ms=spec.degraded_dwell_ms,
            rebuild_parallel=spec.rebuild_parallel,
            journal=spec.journal,
            journal_latency_ms=spec.journal_latency_ms,
            scrub_interval_ms=spec.scrub_interval_ms,
            scrub_throttle_ms=spec.scrub_throttle_ms,
            restart_delay_ms=spec.restart_delay_ms,
            max_samples=spec.max_samples,
            transient_io_rate=spec.transient_io_rate,
            lse_per_gb=spec.lse_per_gb,
            checksums=spec.checksums,
        )
    }


def _execute_openloop(spec: OpenLoopSpec) -> dict:
    from repro.experiments.openloop import run_openloop_trial

    return {"openloop": run_openloop_trial(spec)}


def _execute_failslow(spec: FailSlowTrialSpec) -> dict:
    from repro.experiments.failslow import run_failslow_trial

    return {"failslow": run_failslow_trial(spec)}


def _execute_corruption(spec: CorruptionTrialSpec) -> dict:
    from repro.experiments.corruption import run_corruption_trial

    return {"corruption": run_corruption_trial(spec)}


_EXECUTORS = {
    ExperimentSpec.kind: _execute_response,
    Table1Spec.kind: _execute_table1,
    LifecycleSpec.kind: _execute_lifecycle,
    CampaignTrialSpec.kind: _execute_campaign_trial,
    CrashTrialSpec.kind: _execute_crash_trial,
    NemesisTrialSpec.kind: _execute_nemesis_trial,
    OpenLoopSpec.kind: _execute_openloop,
    FailSlowTrialSpec.kind: _execute_failslow,
    CorruptionTrialSpec.kind: _execute_corruption,
}


def _finalize(record: dict, spec: Spec) -> dict:
    record["schema"] = RESULT_SCHEMA_VERSION
    record["kind"] = spec.kind
    record["spec"] = spec_to_dict(spec)
    record["spec_hash"] = spec_hash(spec)
    return record


def execute_spec(spec: Spec) -> dict:
    """Run one spec to completion and return its result record."""
    executor = _EXECUTORS.get(spec.kind)
    if executor is None:
        raise ConfigurationError(f"no executor for spec kind {spec.kind!r}")
    return _finalize(executor(spec), spec)


def point_from_record(record: dict):
    """Rebuild the :class:`ResponsePoint` a response record encodes."""
    from repro.experiments.response import ResponsePoint
    from repro.stats.seekcount import SeekMix

    data = dict(record["point"])
    data["seek_mix"] = SeekMix(**data["seek_mix"])
    return ResponsePoint(**data)


def cell_from_record(record: dict):
    """Rebuild the :class:`Table1Cell` a table1 record encodes."""
    from repro.experiments.table1 import Table1Cell

    return Table1Cell(**record["cell"])


def canonical_json(records: List[dict]) -> str:
    """Deterministic serialization for byte-level record comparison."""
    return json.dumps(records, sort_keys=True, separators=(",", ":"))
