"""Corruption trials: the end-to-end defense stack under silent faults.

One trial offers open-loop Poisson arrivals — a read/write mix over a
small, deliberately re-read working set — to an array whose disks lie:
a seeded :class:`~repro.faults.corruption.CorruptionModel` loses writes,
misdirects them onto victim cells, and rots stored bits.  The
``defense`` axis switches the protection stack one layer at a time:

- ``none``     — no defense: corrupt cells are served as good data
  (counted silently, per kind, by the model and the oracle), and
  undefended read-modify-writes fold stale pre-reads into parity
  (*parity pollution*);
- ``checksum`` — per-stripe-unit checksum+write-version metadata
  validated on every read path; a mismatch is demoted to a media error
  and repaired from redundancy via the existing escalation;
- ``verify``   — ``checksum`` plus write-verify: every write is read
  back (charged on the engine clock) so lost and misdirected writes are
  caught at write time, not at next read;
- ``audit``    — ``checksum`` plus a parity-audit scrub that sweeps
  every live cell, verifies it against its metadata, and repairs
  mismatches from stripe peers before any client reads them.

The measurands are the per-kind corruption ledger (injected / detected
/ silent / repaired / remaining), the foreground latency each tier
costs, and the classification headline the committed
``BENCH_corruption.json`` asserts: the full stack serves *zero* silent
corruption while no-defense serves plenty.

Every draw comes from named seeded streams, so trials are pure
functions of their specs and plug into the runner's byte-determinism
contract.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, List, Optional

from repro.array.controller import ArrayController, LogicalAccess
from repro.errors import ConfigurationError
from repro.experiments.config import (
    PAPER_SCHEDULER,
    PAPER_SCHEDULER_WINDOW,
    PAPER_STRIPE_UNIT_KB,
    layout_for,
)
from repro.faults.corruption import ALL_CORRUPTION_KINDS, CorruptionModel
from repro.faults.lifecycle import ArrayLifecycle
from repro.faults.media import MediaErrorMap
from repro.faults.oracle import IntegrityOracle
from repro.faults.scenario import FaultScenario
from repro.faults.scrubber import Scrubber
from repro.sim.engine import SimulationEngine
from repro.traffic.admission import AdmissionQueue, offer_arrivals
from repro.traffic.arrivals import PoissonArrivals
from repro.workload.generators import UniformGenerator
from repro.workload.spec import AccessSpec

if TYPE_CHECKING:
    from repro.runner.spec import CorruptionTrialSpec

#: Defense tiers, weakest to strongest (see module docstring).
DEFENSES = ("none", "checksum", "verify", "audit")

#: Trial outcome classifications.
OUTCOMES = ("clean", "detected_and_repaired", "silent_corruption")


def _latency_stats(samples: List[float]) -> dict:
    """Mean / p99 / max over a latency series (None-safe when empty)."""
    if not samples:
        return {"count": 0, "mean_ms": None, "p99_ms": None, "max_ms": None}
    ordered = sorted(samples)
    p99 = ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]
    return {
        "count": len(ordered),
        "mean_ms": sum(ordered) / len(ordered),
        "p99_ms": p99,
        "max_ms": ordered[-1],
    }


def run_corruption_trial(spec: CorruptionTrialSpec) -> dict:
    """One trial of a :class:`~repro.runner.spec.CorruptionTrialSpec`;
    returns a JSON-able record.

    The working set is ``span_units`` data units — small on purpose, so
    cells the workload writes (and the model corrupts) are re-read
    within the trial and every latent corruption gets a chance to be
    served or caught.  The corruption model's offset domain is bounded
    to the physical rows holding that working set, so misdirected-write
    victims stay inside what the workload will actually read back.

    ``fail_at_ms`` optionally fails a disk mid-trial and leaves the
    array degraded (no rebuild within the horizon), exercising the
    degraded-read and escalation validation paths.
    """
    engine = SimulationEngine()
    layout = layout_for(spec.layout, disks=spec.disks, width=spec.width)
    controller = ArrayController(
        engine,
        layout,
        scheduler_name=PAPER_SCHEDULER,
        scheduler_window=PAPER_SCHEDULER_WINDOW,
        stripe_unit_kb=PAPER_STRIPE_UNIT_KB,
    )
    oracle_model = controller.attach_oracle(IntegrityOracle(layout))
    span = min(spec.span_units, controller.addressable_data_units)

    #: Physical rows holding the working set: the corruption model's
    #: offset domain, so misdirected victims stay consumable.
    periods_swept = -(-span // layout.data_units_per_period)
    rows = periods_swept * layout.period

    stream_root = spec.seed * 1_000_003 + spec.trial
    model = CorruptionModel(
        layout.n,
        rows,
        seed=f"{stream_root}/corruption",
        lost_rate=spec.lost_rate,
        misdirected_rate=spec.misdirected_rate,
        bitrot_cells=spec.bitrot_cells,
    )
    controller.attach_corruption(model)
    if spec.defense != "none":
        controller.enable_checksums(
            write_verify=(spec.defense == "verify"),
            metadata_latency_ms=spec.checksum_latency_ms,
        )
    scrubber = None
    if spec.defense == "audit":
        scrubber = Scrubber(
            controller,
            MediaErrorMap({}),
            interval_ms=spec.scrub_interval_ms,
            rows=rows,
            audit=True,
        )
        scrubber.start()

    lifecycle = None
    if spec.fail_at_ms is not None:
        scenario = FaultScenario(
            failed_disk=spec.failed_disk,
            fault_time_ms=spec.fail_at_ms,
            # The dwell outlasts the horizon: the array stays degraded,
            # so surviving-peer reads exercise the degraded validation
            # path without paying for a rebuild.
            degraded_dwell_ms=2 * spec.horizon_ms,
            rebuild_rows=rows,
        )
        lifecycle = ArrayLifecycle(controller, scenario)
        lifecycle.arm()

    totals = {"resolved": 0}
    lat_read: List[float] = []
    lat_write: List[float] = []

    def resolve() -> None:
        totals["resolved"] += 1
        if totals["resolved"] >= spec.arrivals:
            engine.stop()

    def on_response(
        access: LogicalAccess, total_ms: float, wait_ms: float
    ) -> None:
        (lat_write if access.is_write else lat_read).append(total_ms)
        resolve()

    queue = AdmissionQueue(
        controller,
        on_response,
        depth=spec.queue_depth,
        service_slots=spec.service_slots,
    )

    units = AccessSpec(spec.size_kb, False).units(PAPER_STRIPE_UNIT_KB)
    location = UniformGenerator(
        span, units, random.Random(f"{stream_root}/corruption-loc")
    )
    rw_rng = random.Random(f"{stream_root}/corruption-rw")
    offer_arrivals(
        queue,
        PoissonArrivals(
            spec.rate_per_s, random.Random(f"{stream_root}/arrivals")
        ),
        lambda access_id: LogicalAccess(
            access_id=access_id,
            first_unit=location.next_start(),
            unit_count=units,
            is_write=rw_rng.random() >= spec.read_fraction,
        ),
        spec.arrivals,
        0.0,
        resolve,
    )
    engine.schedule_at(spec.horizon_ms, engine.stop)
    engine.run()

    if scrubber is not None:
        scrubber.stop()

    report = model.report()
    if report["silent_total"] > 0:
        classification = "silent_corruption"
    elif report["detected_total"] > 0:
        classification = "detected_and_repaired"
    else:
        classification = "clean"

    stats = queue.stats()
    makespan_ms = engine.now
    record = {
        "layout": spec.layout,
        "defense": spec.defense,
        "trial": spec.trial,
        "seed": spec.seed,
        "lost_rate": spec.lost_rate,
        "misdirected_rate": spec.misdirected_rate,
        "bitrot_cells": spec.bitrot_cells,
        "rows": rows,
        "offered": stats["offered"],
        "completed": stats["completed"],
        "shed": stats["shed"],
        "truncated": totals["resolved"] < spec.arrivals,
        "makespan_ms": makespan_ms,
        "throughput_per_s": (
            stats["completed"] / (makespan_ms / 1000.0)
            if makespan_ms > 0
            else None
        ),
        "latency": {
            "read": _latency_stats(lat_read),
            "write": _latency_stats(lat_write),
            "all": _latency_stats(lat_read + lat_write),
        },
        "classification": classification,
        "corruption": report,
        "oracle": oracle_model.verify(failed_disk=controller.failed_disk),
        "instrumentation": controller.instrumentation_record(),
    }
    if spec.defense != "none":
        record["checksum"] = controller.checksum_stats.to_dict()
    if scrubber is not None:
        record["scrub_audit"] = scrubber.to_dict()
    if lifecycle is not None:
        record["transitions"] = [list(t) for t in lifecycle.transitions]
    return record


def corruption_specs(
    layouts: List[str],
    defenses: List[str] = DEFENSES,
    trials: int = 25,
    seed: int = 0,
    start: int = 0,
    disks: Optional[int] = None,
    **overrides,
) -> list:
    """The defense sweep as runner specs (layout x defense x trial)."""
    # Local import: repro.runner imports the experiment drivers' specs.
    from repro.runner.spec import CorruptionTrialSpec

    if trials < 1:
        raise ConfigurationError(f"need >= 1 trial, got {trials}")
    specs = []
    for layout in layouts:
        for defense in defenses:
            for trial in range(start, start + trials):
                kwargs = dict(overrides)
                if disks is not None:
                    kwargs["disks"] = disks
                specs.append(
                    CorruptionTrialSpec(
                        layout=layout,
                        defense=defense,
                        trial=trial,
                        seed=seed,
                        **kwargs,
                    )
                )
    return specs


def summarize_corruption(records: List[dict]) -> dict:
    """Reduce trial records to the defense-comparison summary.

    Per (layout, defense): outcome counts, the per-kind ledger totals,
    and the latency/throughput cost of the tier.  The headline — the
    committed bench's acceptance — is ``silent_by_defense``: zero for
    every checksummed tier, positive for ``none``.
    """
    if not records:
        raise ConfigurationError("no corruption records to summarize")
    tiers: dict = {}
    for record in records:
        key = (record["layout"], record["defense"])
        tiers.setdefault(key, []).append(record)
    by_tier: dict = {}
    for (layout, defense), recs in sorted(tiers.items()):
        ledger = {
            bucket: {
                kind: sum(
                    r["corruption"][bucket].get(kind, 0) for r in recs
                )
                for kind in ALL_CORRUPTION_KINDS
            }
            for bucket in ("injected", "detected", "silent", "repaired")
        }
        means = [
            r["latency"]["all"]["mean_ms"]
            for r in recs
            if r["latency"]["all"]["mean_ms"] is not None
        ]
        p99s = [
            r["latency"]["all"]["p99_ms"]
            for r in recs
            if r["latency"]["all"]["p99_ms"] is not None
        ]
        throughputs = [
            r["throughput_per_s"]
            for r in recs
            if r["throughput_per_s"] is not None
        ]
        entry = {
            "trials": len(recs),
            "outcomes": {
                outcome: sum(
                    1 for r in recs if r["classification"] == outcome
                )
                for outcome in OUTCOMES
            },
            "ledger": ledger,
            "silent_total": sum(
                r["corruption"]["silent_total"] for r in recs
            ),
            "detected_total": sum(
                r["corruption"]["detected_total"] for r in recs
            ),
            "cells_corrupted": sum(
                r["corruption"]["cells_corrupted"] for r in recs
            ),
            "remaining": sum(r["corruption"]["remaining"] for r in recs),
            "truncated_trials": sum(1 for r in recs if r["truncated"]),
            "mean_latency_ms": (
                sum(means) / len(means) if means else None
            ),
            "mean_p99_ms": sum(p99s) / len(p99s) if p99s else None,
            "mean_throughput_per_s": (
                sum(throughputs) / len(throughputs)
                if throughputs
                else None
            ),
        }
        checksum_recs = [r for r in recs if "checksum" in r]
        if checksum_recs:
            entry["checksum"] = {
                field: sum(r["checksum"][field] for r in checksum_recs)
                for field in checksum_recs[0]["checksum"]
            }
        audit_recs = [r for r in recs if "scrub_audit" in r]
        if audit_recs:
            entry["scrub_audit"] = {
                field: sum(r["scrub_audit"][field] for r in audit_recs)
                for field in (
                    "stripes_audited",
                    "audit_mismatches",
                    "audit_repairs",
                    "audit_unrepairable",
                )
            }
        by_tier.setdefault(layout, {})[defense] = entry

    silent_by_defense: dict = {}
    latency_cost: dict = {}
    for layout, defenses in by_tier.items():
        for defense, entry in defenses.items():
            silent_by_defense[defense] = (
                silent_by_defense.get(defense, 0) + entry["silent_total"]
            )
        base = defenses.get("none")
        if base is not None and base["mean_latency_ms"]:
            latency_cost[layout] = {
                defense: (
                    entry["mean_latency_ms"] / base["mean_latency_ms"]
                    if entry["mean_latency_ms"] is not None
                    else None
                )
                for defense, entry in defenses.items()
            }
    return {
        "trials": len(records),
        "layouts": sorted(by_tier),
        "silent_by_defense": {
            k: silent_by_defense[k] for k in sorted(silent_by_defense)
        },
        "defended_silent_total": sum(
            count
            for defense, count in silent_by_defense.items()
            if defense != "none"
        ),
        "undefended_silent_total": silent_by_defense.get("none", 0),
        "latency_cost_vs_none": latency_cost,
        "by_tier": {
            layout: defenses for layout, defenses in sorted(by_tier.items())
        },
    }
