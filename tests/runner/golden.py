"""The canonical golden-trace scenario (and its regenerator).

A short, fixed-seed run of the paper's 13-disk PDDL array whose exact
physical-operation trace is pinned in ``tests/data``.  Any engine,
scheduler, drive-model, or controller change that alters event ordering
or timing — intentionally or not — shows up as a trace diff.

To regenerate after an *intentional* simulation-semantics change
(review the diff first, and bump ``SPEC_SCHEMA_VERSION`` so cached
results roll over too):

    PYTHONPATH=src python -m tests.runner.golden
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "data" / (
    "golden_trace_pddl13.json"
)

#: The pinned scenario, as :class:`~repro.runner.spec.ExperimentSpec`
#: fields: small enough to run in milliseconds, rich enough (3 clients,
#: multi-unit accesses, SSTF reordering) to exercise queueing.
SCENARIO = dict(
    layout="pddl",
    size_kb=24,
    clients=3,
    seed=1999,
    max_samples=20,
    warmup=0,
    use_stopping_rule=False,
)


def generate_trace() -> list:
    """Run the canonical scenario; return its physical-operation trace."""
    from repro.experiments.response import run_response_point_instrumented
    from repro.runner import ExperimentSpec
    from repro.sim.instrument import TraceRecorder

    recorder = TraceRecorder()
    run_response_point_instrumented(
        ExperimentSpec(**SCENARIO), trace=recorder
    )
    return recorder.entries


def main() -> None:
    trace = generate_trace()
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(
            {"scenario": SCENARIO, "trace": trace}, handle, indent=1
        )
        handle.write("\n")
    print(f"wrote {len(trace)} trace entries to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
