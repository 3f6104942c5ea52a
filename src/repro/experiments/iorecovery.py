"""Aggregation of per-trial I/O-recovery counters.

Campaign, crash, nemesis, open-loop, and fail-slow trials all run the
controller's transient-error machinery; a trial record carries its
:class:`repro.array.controller.IoRecoveryStats` dump only when retries
or hedging were enabled — top-level ``"io_recovery"`` for the
fault campaigns, nested under ``"instrumentation"`` for the traffic
trials.  The summarizers fold those into one totals block
*conditionally*: sweeps that never enabled the machinery must keep
their summaries byte-identical with committed bench baselines, so the
aggregate is omitted rather than zero-filled.
"""

from __future__ import annotations

from typing import List, Optional


def trial_io_recovery(record: dict) -> Optional[dict]:
    """The trial's recovery counters, wherever the record put them."""
    block = record.get("io_recovery")
    if block is None:
        block = (record.get("instrumentation") or {}).get("io_recovery")
    return block


def aggregate_io_recovery(records: List[dict]) -> Optional[dict]:
    """Sum recovery counters across trials.

    Returns ``None`` when no trial carried counters; keys are the union
    of the per-trial blocks (hedge counters only appear when a hedge
    policy ran), plus ``trials_reporting``.
    """
    blocks = [b for b in map(trial_io_recovery, records) if b]
    if not blocks:
        return None
    totals: dict = {}
    for block in blocks:
        for key in sorted(block):
            totals[key] = totals.get(key, 0) + block[key]
    return {
        "trials_reporting": len(blocks),
        **{key: totals[key] for key in sorted(totals)},
    }
