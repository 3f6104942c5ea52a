"""Measure one workload and print one JSON result line.

    python3 benchmarks/perf/run.py --workload fig_reads --seed 0 --seconds 20 --trace 0

Run from the repository root.  ``--trace 0`` reports the end-to-end
metrics (``wall_s``, ``setup_s``, ``peak_rss_mb``); ``--trace 1`` runs
one untraced and one cProfile-traced pass and reports every per-layer
metric.  The last output line is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))))

from benchmarks.perf import harness, workloads  # noqa: E402
from benchmarks.perf.layers import DECLARED_PER_LAYER, unit_of  # noqa: E402

#: A run must end within this many seconds, children included.
DEADLINE_S = 170.0

#: End-to-end metrics this entry point reports; ``failed_frac`` is
#: reported as ``failed`` over ``attempted`` instead, since it is 0.
REPORTED_E2E = ("wall_s", "setup_s", "peak_rss_mb")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    reference = harness.expected_digests(args.workload, args.seed)
    if args.trace:
        result = harness.measure(
            args.workload, args.seed, passes=1, probes=0,
            trace=True, reference=reference, deadline=deadline,
        )
        metrics = {
            name: {"value": result["per_layer"][name], "unit": unit_of(name)}
            for name in DECLARED_PER_LAYER
        }
    else:
        result = harness.measure(
            args.workload, args.seed, passes=3, seconds=args.seconds,
            trace=False, reference=reference, deadline=deadline,
        )
        metrics = {
            name: {"value": result["e2e"][name]["median"], "unit": harness.E2E[name][0]}
            for name in REPORTED_E2E
        }
    for problem in result["problems"]:
        print(f"PROBLEM: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
