"""The canonical golden lifecycle scenario (and its regenerator).

A short, fixed-seed lifecycle run of the 13-disk PDDL array whose
mode-transition timestamps, rebuild bookkeeping, and progress timeline
are pinned in ``tests/data``.  Any change to the failure scheduling, the
lifecycle state machine, the reconstructor, or the underlying simulation
that shifts when the array changes regime shows up as a diff here.

To regenerate after an *intentional* semantics change (review the diff
first; the result cache's source fingerprint already keeps records of
the old code from being served):

    PYTHONPATH=src python -m tests.runner.golden_lifecycle
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "data" / (
    "golden_lifecycle_pddl13.json"
)

#: The pinned scenario: one dwell window and a two-period rebuild, so
#: every regime is entered at a distinct, queueing-dependent time.
SPEC_FIELDS = dict(
    layout="pddl",
    size_kb=24,
    clients=3,
    seed=1999,
    fault_time_ms=400.0,
    degraded_dwell_ms=250.0,
    rebuild_rows=26,
    post_samples=30,
    max_samples=900,
)


def generate_summary() -> dict:
    """Run the canonical lifecycle spec; return its pinned-able summary."""
    from repro.runner import LifecycleSpec, execute_spec

    record = execute_spec(LifecycleSpec(**SPEC_FIELDS))
    life = record["lifecycle"]
    return {
        "transitions": life["transitions"],
        "fault_time_ms": life["fault_time_ms"],
        "fault_disk": life["fault_disk"],
        "rebuild_duration_ms": life["rebuild_duration_ms"],
        "rebuild_steps": life["rebuild_steps"],
        "samples": life["samples"],
        "mode_counts": {
            mode: histogram["count"]
            for mode, histogram in record["histograms"].items()
        },
        "progress": record["progress"],
    }


def main() -> None:
    summary = generate_summary()
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(
            {"spec": SPEC_FIELDS, "summary": summary}, handle, indent=1
        )
        handle.write("\n")
    print(
        f"wrote {len(summary['transitions'])} transitions to {GOLDEN_PATH}"
    )


if __name__ == "__main__":
    main()
