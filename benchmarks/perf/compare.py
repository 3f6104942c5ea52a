"""Compare two ``run`` result files: e2e verdicts, exact counts, digests."""

from __future__ import annotations

import statistics
from typing import List, Tuple

from benchmarks.perf.harness import E2E
from benchmarks.perf.layers import is_count


def spread(summary: dict) -> float:
    """Interquartile distance over the median, 0 for a single sample."""
    samples = summary["samples"]
    if len(samples) < 2 or not summary["median"]:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / summary["median"]


def verdict(metric: str, base: dict, cand: dict) -> str:
    """``ok``, ``better``, ``worse`` or ``unresolved`` for one metric.

    Every end-to-end metric is better lower.  A side whose own spread
    exceeds the bound cannot resolve a change of that size.
    """
    bound = E2E[metric][1]
    if spread(base) > bound or spread(cand) > bound:
        return "unresolved"
    delta = cand["median"] - base["median"]
    limit = bound * base["median"]
    if delta > limit:
        return "worse"
    if delta < -limit:
        return "better"
    return "ok"


def compare(base: dict, cand: dict) -> Tuple[List[str], bool]:
    """Report lines, and whether the candidate passes."""
    lines: List[str] = []
    ok = True
    if (base["seed"], base["smoke"]) != (cand["seed"], cand["smoke"]):
        return ["results differ in seed or --smoke; nothing to compare"], False
    header = f"{'workload':16s} {'metric':12s} {'A median':>10s} {'B median':>10s}  {'A min-max':21s}  {'B min-max':21s}  verdict"
    lines.append(header)
    for workload in base["workloads"]:
        a = base["workloads"][workload]
        b = cand["workloads"].get(workload)
        if b is None:
            lines.append(f"{workload:16s} missing from B")
            ok = False
            continue
        for metric in E2E:
            sa, sb = a["e2e"].get(metric), b["e2e"].get(metric)
            if sa is None or sb is None:
                continue
            word = verdict(metric, sa, sb)
            ok &= word != "worse"
            lines.append(
                f"{workload:16s} {metric:12s} {sa['median']:10.4f} {sb['median']:10.4f}"
                f"  {sa['min']:9.4f}-{sa['max']:<11.4f}  {sb['min']:9.4f}-{sb['max']:<11.4f}  {word}"
            )
        for name, value in a.get("per_layer", {}).items():
            other = b.get("per_layer", {}).get(name)
            if is_count(name) and value != other:
                lines.append(f"{workload:16s} count {name} differs: {value} vs {other}")
                ok = False
        if a["digests"] != b["digests"]:
            differing = sum(x != y for x, y in zip(a["digests"], b["digests"]))
            differing += abs(len(a["digests"]) - len(b["digests"]))
            lines.append(f"{workload:16s} {differing} record digest(s) differ")
            ok = False
    return lines, ok
